"""Genus-0 conformal blocks as exactly evaluable functionals.

Two evaluation paths are provided everywhere and cross-checked in tests:

* an exact closed-form oracle for the Heisenberg algebra, summing Wick
  pair contractions of free-boson modes into a symbolic rational function
  of the insertion points (``heisenberg_correlator``);
* truncated graded sums over intermediate-state projections for any of the
  provided algebras (``propagate_eval``), with a heuristic tail indicator
  that is reported but never used to claim exactness.

The module also houses the strong-residue-criterion checker for a
trivialized finite-rank bundle on the sphere and the linear reconstruction
of the unique global rational section from local expansion data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .scalars import Scalar, binomial
from .series import FracLaurent
from .voa import CutoffOverflow, DualModule, GradedVector, HeisenbergAlgebra, dual_pairing

S0 = Scalar.integer(0)
S1 = Scalar.integer(1)

INF = "infinity"  # marked-point sentinel for the point at infinity


def _check_marked_points(points):
    seen = set()
    for x in points:
        key = "inf" if x is INF else Fraction(x.to_fraction() if isinstance(x, Scalar) else x)
        if key in seen:
            raise ValueError("marked points must be pairwise distinct")
        seen.add(key)


# ---------------------------------------------------------------------------
# symbolic rational functions of insertion points


class RationalExpr:
    """Sum of terms coef * prod z_i^e_i * prod (z_i - z_j)^e_ij (i < j).

    Coefficients are Scalars (or formal series when a parameter rides
    along).  This normal form is closed under the arithmetic the Wick
    oracle needs and supports exact evaluation, substitution of series
    for the points, and chamber expansions.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: dict[(zpows, dpows) -> coef] with zpows/dpows sorted tuples
        self.terms = {}
        for key, c in (terms or {}).items():
            if not c.is_zero():
                self.terms[key] = c

    @staticmethod
    def constant(c) -> "RationalExpr":
        c = c if isinstance(c, (Scalar, FracLaurent)) else Scalar._coerce(c)
        return RationalExpr({((), ()): c})

    @staticmethod
    def term(coef, zpows=None, dpows=None) -> "RationalExpr":
        zp = tuple(sorted((i, e) for i, e in (zpows or {}).items() if e != 0))
        dp = tuple(sorted(((i, j), e) for (i, j), e in (dpows or {}).items() if e != 0))
        coef = coef if isinstance(coef, (Scalar, FracLaurent)) else Scalar._coerce(coef)
        return RationalExpr({(zp, dp): coef})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out[key] + c if key in out else c
        return RationalExpr(out)

    def __neg__(self):
        return RationalExpr({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return RationalExpr({k: x * c for k, x in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for (zp1, dp1), c1 in self.terms.items():
            for (zp2, dp2), c2 in other.terms.items():
                zp = dict(zp1)
                for i, e in zp2:
                    zp[i] = zp.get(i, 0) + e
                dp = dict(dp1)
                for ij, e in dp2:
                    dp[ij] = dp.get(ij, 0) + e
                key = (
                    tuple(sorted((i, e) for i, e in zp.items() if e)),
                    tuple(sorted((ij, e) for ij, e in dp.items() if e)),
                )
                c = c1 * c2
                out[key] = out[key] + c if key in out else c
        return RationalExpr(out)

    def __repr__(self):
        if not self.terms:
            return "RationalExpr(0)"
        bits = []
        for (zp, dp), c in sorted(self.terms.items()):
            fac = [f"z{i}^{e}" for i, e in zp]
            fac += [f"(z{i}-z{j})^{e}" for (i, j), e in dp]
            bits.append(f"({c})" + ("*" + "*".join(fac) if fac else ""))
        return "RationalExpr(" + " + ".join(bits) + ")"

    def evaluate(self, points: dict) -> Scalar:
        """Exact value at distinct points (Scalar-valued, pairwise distinct)."""
        pts = {i: p if isinstance(p, Scalar) else Scalar._coerce(p) for i, p in points.items()}
        total = S0
        for (zp, dp), c in self.terms.items():
            val = c
            for i, e in zp:
                val = val * pts[i] ** e
            for (i, j), e in dp:
                diff = pts[i] - pts[j]
                if diff.is_zero():
                    raise ZeroDivisionError("coincident insertion points")
                val = val * diff**e
            total = total + val
        return total

    def substitute(self, points: dict, var: str, order=None) -> FracLaurent:
        """Substitute a FracLaurent (or Scalar, treated as constant) for each
        point and return the resulting series in ``var``.

        Exact when every needed factor is a monomial; otherwise ``order``
        bounds the binomial expansions of the non-monomial factors.
        """

        def as_series(p):
            if isinstance(p, FracLaurent):
                return p
            p = p if isinstance(p, Scalar) else Scalar._coerce(p)
            return FracLaurent(var, 1, {Fraction(0): p})

        pts = {i: as_series(p) for i, p in points.items()}
        lat = 1
        for p in pts.values():
            lat = lat * p.k // math.gcd(lat, p.k)
        total = FracLaurent.zero(var, lat)
        for (zp, dp), c in self.terms.items():
            if isinstance(c, FracLaurent):
                val = c.rename(var)
            else:
                val = FracLaurent(var, 1, {Fraction(0): c})
            for i, e in zp:
                val = val * _series_power(pts[i], e, order)
            for (i, j), e in dp:
                val = val * _series_power(pts[i] - pts[j], e, order)
            total = total + val
        return total

    def expand_chamber(self, radial_order, max_m: int) -> dict:
        """Expand in the chamber |z_a| < |z_b| for a before b in radial_order.

        Returns {exponent tuple (indexed by position in radial_order): coef},
        expanding every mixed factor as a geometric series in the smaller
        over the larger point, to binomial order max_m per factor.
        """
        pos = {i: t for t, i in enumerate(radial_order)}
        n = len(radial_order)
        total = {}
        for (zp, dp), c in self.terms.items():
            poly = {(0,) * n: c}
            for i, e in zp:
                poly = {_tadd(k, pos[i], e): v for k, v in poly.items()}
            for (i, j), e in dp:
                small, big = (i, j) if pos[i] < pos[j] else (j, i)
                # (z_i - z_j)^e = (z_i - z_j)^e with the big point factored out:
                # a (-1)^e appears exactly when the big point is the subtrahend.
                sign = (-1) ** (e % 2) if big == j else 1
                fac = {}
                for m in range(max_m + 1):
                    coef = Fraction(binomial(e, m)) * (-1) ** (m % 2) * sign
                    if coef == 0:
                        continue
                    key = [0] * n
                    key[pos[small]] = m
                    key[pos[big]] = e - m
                    fac[tuple(key)] = Scalar.from_fraction(coef)
                poly = _mpoly_mul(poly, fac)
            for k, v in poly.items():
                total[k] = total[k] + v if k in total else v
        return {k: v for k, v in total.items() if not v.is_zero()}


def _tadd(key, pos, e):
    lst = list(key)
    lst[pos] += e
    return tuple(lst)


def _mpoly_mul(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            c = c1 * c2
            out[k] = out[k] + c if k in out else c
    return out


def _series_power(s: FracLaurent, e: int, order):
    if e >= 0:
        return s**e
    return s.inverse(order=order) ** (-e)


# ---------------------------------------------------------------------------
# the free-boson Wick oracle


def _site_factors(mono):
    # a_{-n} descendant factor -> derivative order n-1, normalization 1/(n-1)!
    return [(n - 1, Fraction(1, math.factorial(n - 1))) for n in mono]


def _gram_norm(mono) -> Fraction:
    out = Fraction(1)
    for part in set(mono):
        mult = mono.count(part)
        out *= Fraction(part) ** mult * math.factorial(mult)
    return out


def _falling(nu, cnt):
    out = 1
    for t in range(cnt):
        out *= nu - t
    return out


def _rising(mu, cnt):
    out = 1
    for t in range(cnt):
        out *= mu + t
    return out


def heisenberg_correlator(vs, w: GradedVector, wp: GradedVector) -> RationalExpr:
    """<Y(v_n, z_n) ... Y(v_1, z_1) w, w'> as an exact rational function.

    Wick contraction sum for the free boson: generator insertions pair off
    into (z_i - z_j)^-2 factors, descendants differentiate them, in/out Fock
    modes contribute monomial factors, and with nonzero momentum an insertion
    factor may stand alone as momentum/z.  Point i of the result is the
    insertion variable z_i (0-based slot order of ``vs``).
    """
    module = w.space
    alg = module.algebra
    if not isinstance(alg, HeisenbergAlgebra):
        raise ValueError("the correlator oracle is Heisenberg-only")
    if not isinstance(wp.space, DualModule) or wp.space.base is not module:
        raise ValueError("w' must live in the graded dual of w's module")
    lam = module.momentum
    total = RationalExpr()
    combos = [({}, S1)]
    # distribute the multilinear expansion over basis monomials
    for idx, v in enumerate(vs):
        if v.space is not alg:
            raise ValueError("insertion vectors must lie in the Heisenberg algebra")
        nxt = []
        for mono, c in v.terms.items():
            for sites, coef in combos:
                d = dict(sites)
                d[idx] = mono
                nxt.append((d, coef * c))
        combos = nxt
    for sites, coef0 in combos:
        for w_mono, wc in w.terms.items():
            for wp_mono, wpc in wp.terms.items():
                expr = _wick_sum(sites, w_mono, wp_mono, lam, len(vs))
                if not expr.is_zero():
                    norm = Scalar.from_fraction(1 / _gram_norm(wp_mono))
                    total = total + expr.scale(coef0 * wc * wpc * norm)
    return total


def _wick_sum(sites, w_mono, wp_mono, lam, nsites) -> RationalExpr:
    # objects: ("site", i, p, norm) / ("out", nu) / ("in", mu)
    objs = []
    for i in range(nsites):
        for p, norm in _site_factors(sites.get(i, ())):
            objs.append(("site", i, p, norm))
    for nu in wp_mono:
        objs.append(("out", nu))
    for mu in w_mono:
        objs.append(("in", mu))

    def contract(a, b) -> RationalExpr:
        ka, kb = a[0], b[0]
        if ka == "site" and kb == "site":
            _, i, p, np_ = a
            _, j, q, nq = b
            if i == j:
                return RationalExpr()  # no self-contraction inside one insertion
            if i > j:
                i, p, j, q = j, q, i, p
            coef = Fraction((-1) ** (p % 2) * math.factorial(p + q + 1)) * np_ * nq
            return RationalExpr.term(Scalar.from_fraction(coef), dpows={(i, j): -(p + q + 2)})
        if ka == "out" and kb == "site":
            _, nu = a
            _, i, p, norm = b
            coef = Fraction(_falling(nu, p + 1)) * norm
            if coef == 0:
                return RationalExpr()
            return RationalExpr.term(Scalar.from_fraction(coef), zpows={i: nu - 1 - p})
        if ka == "site" and kb == "out":
            return contract(b, a)
        if ka == "site" and kb == "in":
            _, i, p, norm = a
            _, mu = b
            coef = Fraction((-1) ** (p % 2) * _rising(mu, p + 1)) * norm
            return RationalExpr.term(Scalar.from_fraction(coef), zpows={i: -mu - 1 - p})
        if ka == "in" and kb == "site":
            return contract(b, a)
        if ka == "out" and kb == "in":
            _, nu = a
            _, mu = b
            if nu != mu:
                return RationalExpr()
            return RationalExpr.constant(nu)
        if ka == "in" and kb == "out":
            return contract(b, a)
        return RationalExpr()  # out-out and in-in never contract

    def lone(a) -> RationalExpr:
        if a[0] != "site" or lam.is_zero():
            return RationalExpr()
        _, i, p, norm = a
        coef = Scalar.from_fraction(Fraction((-1) ** (p % 2) * math.factorial(p)) * norm)
        return RationalExpr.term(coef * lam, zpows={i: -1 - p})

    def rec(remaining) -> RationalExpr:
        if not remaining:
            return RationalExpr.constant(1)
        first, rest = remaining[0], remaining[1:]
        out = RationalExpr()
        solo = lone(first)
        if not solo.is_zero():
            out = out + solo * rec(rest)
        for t in range(len(rest)):
            pair = contract(first, rest[t])
            if pair.is_zero():
                continue
            out = out + pair * rec(rest[:t] + rest[t + 1 :])
        return out

    return rec(tuple(objs))


# ---------------------------------------------------------------------------
# truncated graded propagation


@dataclass
class PropagationResult:
    value: Scalar
    shells: list  # (grade, Scalar) contributions ordered by grade
    tail_estimate: float
    exact: bool


def _apply_field(v: GradedVector, z: Scalar, state: GradedVector, cutoff: int, zpows=None) -> GradedVector:
    """sum_n z^{-n-1} Y(v)_n state, keeping output grades <= cutoff.

    ``zpows`` maps an exponent e to z^e; calls with the same z may share it."""
    module = state.space
    alg = module.algebra
    if zpows is None:
        zpows = {}
    out = GradedVector(module)
    acc = {}
    for vm, vc in v.terms.items():
        wtv = alg.weight(vm)
        for sm, sc in state.terms.items():
            top = wtv + module.weight(sm) - 1
            for n in range(top - cutoff, top + 1):
                res = alg.mode_mono(vm, n, sm, module)
                if not res:
                    continue
                zn = zpows.get(-n - 1)
                if zn is None:
                    zn = zpows[-n - 1] = z ** (-n - 1)
                zf = zn * vc * sc
                for m, c in res.items():
                    if m in acc:
                        acc[m] = acc[m] + c * zf
                    else:
                        acc[m] = c * zf
    out.terms.update({m: c for m, c in acc.items() if not c.is_zero()})
    return out


def radially_ordered(zs) -> bool:
    mags = [abs(Fraction(z.to_fraction() if isinstance(z, Scalar) else z)) for z in zs]
    return all(a < b for a, b in zip(mags, mags[1:]))


def propagate_eval(vs, zs, w: GradedVector, wp: GradedVector, cutoff: int, keep=5) -> PropagationResult:
    """Truncated iterated sum <Y(v_n,z_n)...Y(v_1,z_1) w, w'>.

    Requires strictly increasing moduli 0 < |z_1| < ... < |z_n|.  Shells are
    indexed by the grade of the intermediate state just before the last
    insertion; their magnitudes feed a geometric-ratio tail estimate.
    """
    if len(vs) != len(zs):
        raise ValueError("insertion vectors and points must match up")
    zs = [z if isinstance(z, Scalar) else Scalar._coerce(z) for z in zs]
    if any(z.is_zero() for z in zs):
        raise ValueError("insertion points must avoid the origin")
    if not radially_ordered(zs):
        raise ValueError("insertion points violate radial ordering")
    needed = max(w.max_weight(), wp.max_weight())
    if needed > cutoff:
        raise CutoffOverflow(needed, cutoff)
    if not vs:
        val = dual_pairing(w, wp)
        return PropagationResult(val, [(w.max_weight(), val)], 0.0, True)
    state = w
    for v, z in zip(vs[:-1], zs[:-1]):
        state = _apply_field(v, z, state, cutoff)
    shells = []
    zpows = {}
    for g, part in sorted(state.weight_components().items()):
        acted = _apply_field(vs[-1], zs[-1], part, cutoff, zpows)
        shells.append((g, dual_pairing(acted, wp)))
    total = S0
    for _, s in shells:
        total = total + s
    return PropagationResult(total, shells, _tail_estimate(shells, keep), len(vs) <= 1)


def _tail_estimate(shells, keep=5) -> float:
    vals = [abs(s.to_complex()) for _, s in shells if not s.is_zero()]
    if not vals:
        return 0.0
    tail = vals[-keep:]
    last = tail[-1]
    if len(tail) >= 2 and tail[-2] > 0:
        r = last / tail[-2]
        if r < 1:
            return last * r / (1 - r)
        return float("inf")
    return last


def propagate_expand(vs, w: GradedVector, wp: GradedVector, shell_cap: int) -> dict:
    """Formal chamber expansion of the iterated sum: {(e_1..e_n): coef} with
    e_i the exponent of z_i, intermediate grades capped at shell_cap.

    A monomial is complete (all contributions collected) iff the grades
    g_t = wt(w) + sum_{i<=t} (wt(v_i) + e_i) all lie in [0, shell_cap]:
    the exponent e_i = -n_i - 1 fixes the grade after the i-th insertion.
    """
    module = w.space
    alg = module.algebra
    nvars = len(vs)
    states = {m: {(0,) * nvars: c} for m, c in w.terms.items()}
    for i, v in enumerate(vs):
        nxt = {}
        for vm, vc in v.terms.items():
            wtv = alg.weight(vm)
            for sm, poly in states.items():
                top = wtv + module.weight(sm) - 1
                for n in range(top - shell_cap, top + 1):
                    res = alg.mode_mono(vm, n, sm, module)
                    if not res:
                        continue
                    for m, c in res.items():
                        tgt = nxt.setdefault(m, {})
                        for key, pc in poly.items():
                            k2 = _tadd(key, i, -n - 1)
                            add = pc * c * vc
                            tgt[k2] = tgt[k2] + add if k2 in tgt else add
        states = nxt
    out = {}
    for m, poly in states.items():
        cp = wp.terms.get(m)
        if cp is None:
            continue
        for key, c in poly.items():
            add = c * cp
            out[key] = out[key] + add if key in out else add
    return {k: v for k, v in out.items() if not v.is_zero()}


def permutation_check(vs, zs, w, wp, cutoff=None, tol=None) -> bool:
    """Insertion-permutation symmetry: simultaneous reordering of the
    vectors and points leaves the block value unchanged.

    With distinct moduli both orderings are evaluated after radial
    re-sorting; on the oracle path (cutoff None) the comparison is exact,
    on the series path it holds to the given tail tolerance.
    """
    zs = [z if isinstance(z, Scalar) else Scalar._coerce(z) for z in zs]
    order = sorted(range(len(zs)), key=lambda i: abs(zs[i].to_fraction()))
    vs_sorted = [vs[i] for i in order]
    zs_sorted = [zs[i] for i in order]
    if cutoff is None:
        expr_a = heisenberg_correlator(vs, w, wp)
        val_a = expr_a.evaluate({i: z for i, z in enumerate(zs)})
        expr_b = heisenberg_correlator(vs_sorted, w, wp)
        val_b = expr_b.evaluate({i: z for i, z in enumerate(zs_sorted)})
        return (val_a - val_b).is_zero()
    res = propagate_eval(vs_sorted, zs_sorted, w, wp, cutoff)
    oracle = heisenberg_correlator(vs, w, wp).evaluate({i: z for i, z in enumerate(zs)})
    return abs(res.value.to_complex() - oracle.to_complex()) <= (tol or 1e-8)


# ---------------------------------------------------------------------------
# strong residue criterion on the sphere (trivialized bundle)


def _form_atom_expansion(atom, point, order) -> FracLaurent:
    """Expansion of a 1-form atom at a marked point, in its local coordinate.

    Atoms: ("pole", x, m) for (zeta-x)^(-m) dzeta, ("poly", p) for zeta^p dzeta.
    At a finite point the local coordinate is z = zeta - x_j and dzeta = dz;
    at infinity it is z = 1/zeta, with dzeta = -z^(-2) dz.  The two extra
    orders there keep the truncation order after the shift by -2.
    """
    if point is not INF:
        return _section_atom_expansion(atom, point, order)
    return _section_atom_expansion(atom, INF, order + 2).shift(-2).scale(-1)


def global_form_basis(points, bound: int):
    """A spanning set of global meromorphic 1-forms with pole order <= bound
    at the marked points: each form is a list of weighted atoms."""
    finite = [x for x in points if x is not INF]
    has_inf = any(x is INF for x in points)
    forms = []
    for x in finite:
        lo = 1 if has_inf else 2
        for m in range(lo, bound + 1):
            forms.append([(("pole", x, m), S1)])
    if has_inf:
        for p in range(0, bound - 1):
            forms.append([(("poly", p), S1)])
    else:
        x0 = finite[0]
        for x in finite[1:]:
            forms.append([(("pole", x, 1), S1), (("pole", x0, 1), -S1)])
    return forms


def residue_criterion(points, series_data, pole_bound: int, dual_pole_bound: int) -> bool:
    """True iff sum_j Res_j <s_j, sigma> = 0 for every global dual form sigma
    with pole order <= dual_pole_bound.

    ``series_data[j][u]``: the u-th component of the local expansion at the
    j-th marked point, a FracLaurent in the local coordinate there, known at
    least through exponent dual_pole_bound - 1 and with valuation >= -pole_bound.
    """
    _check_marked_points(points)
    ncomp = len(series_data[0])
    for j, comps in enumerate(series_data):
        for s in comps:
            v = s.valuation()
            if v is not None and v < -pole_bound:
                raise ValueError(f"series at point {j} has a pole deeper than {pole_bound}")
            if s.trunc is not None and s.trunc < dual_pole_bound:
                raise ValueError(
                    f"series at point {j} known only to order {s.trunc}; "
                    f"need {dual_pole_bound} to pair against the deepest dual pole"
                )
    forms = global_form_basis(points, dual_pole_bound)
    for form in forms:
        for u in range(ncomp):
            total = S0
            for j, x in enumerate(points):
                s = series_data[j][u]
                if s.is_zero():
                    continue
                f = FracLaurent.zero("z", 1)
                for atom, coef in form:
                    f = f + _form_atom_expansion(atom, x, pole_bound + dual_pole_bound).scale(coef)
                total = total + (s.rename("z") * f).residue()
            if not total.is_zero():
                return False
    return True


class GlobalSection:
    """A rank-r global rational section on the sphere with bounded poles at
    the marked points, stored as coefficients over the atom basis."""

    def __init__(self, points, pole_bound, atom_basis, coeffs):
        self.points = points
        self.pole_bound = pole_bound
        self.atoms = atom_basis
        self.coeffs = coeffs  # per component: list of Scalars over atoms

    def expand_at(self, j: int, order: int):
        """Local expansions [per component] at the j-th marked point."""
        x = self.points[j]
        out = []
        for comp in self.coeffs:
            total = FracLaurent.zero("z", 1, trunc=order)
            for atom, c in zip(self.atoms, comp):
                if c.is_zero():
                    continue
                total = total + _section_atom_expansion(atom, x, order).scale(c)
            out.append(total.truncate(order))
        return out

    def evaluate(self, zeta) -> list:
        zeta = zeta if isinstance(zeta, Scalar) else Scalar._coerce(zeta)
        out = []
        for comp in self.coeffs:
            val = S0
            for atom, c in zip(self.atoms, comp):
                if c.is_zero():
                    continue
                if atom[0] == "pole":
                    _, x, m = atom
                    base = zeta - (x if isinstance(x, Scalar) else Scalar._coerce(x))
                    val = val + c * base ** (-m)
                else:
                    val = val + c * zeta ** atom[1]
            out.append(val)
        return out


def _section_atom_expansion(atom, point, order) -> FracLaurent:
    # Expansion of a section atom (function, not 1-form) at a marked point.
    kind = atom[0]
    if point is not INF:
        xj = point if isinstance(point, Scalar) else Scalar._coerce(point)
        if kind == "pole":
            _, x, m = atom
            x = x if isinstance(x, Scalar) else Scalar._coerce(x)
            base = xj - x
            if base.is_zero():
                return FracLaurent("z", 1, {Fraction(-m): S1})
            terms = {}
            for t in range(order + m + 1):
                terms[Fraction(t)] = Scalar.from_fraction(Fraction(binomial(-m, t))) * base ** (-m - t)
            return FracLaurent("z", 1, terms, order + m + 1)
        _, p = atom
        terms = {}
        for t in range(p + 1):
            terms[Fraction(t)] = Scalar.from_fraction(Fraction(binomial(p, t))) * xj ** (p - t)
        return FracLaurent("z", 1, terms)
    if kind == "pole":
        _, x, m = atom
        x = x if isinstance(x, Scalar) else Scalar._coerce(x)
        # (1/z - x)^(-m) = z^m (1 - x z)^(-m)
        terms = {}
        for t in range(order + 3):
            terms[Fraction(m + t)] = Scalar.from_fraction(Fraction(binomial(-m, t))) * (-x) ** t
        return FracLaurent("z", 1, terms, order + m + 1)
    _, p = atom
    return FracLaurent("z", 1, {Fraction(-p): S1})


def section_atom_basis(points, pole_bound: int):
    finite = [x for x in points if x is not INF]
    has_inf = any(x is INF for x in points)
    atoms = []
    for x in finite:
        for m in range(1, pole_bound + 1):
            atoms.append(("pole", x, m))
    top = pole_bound if has_inf else 0
    for p in range(0, top + 1):
        atoms.append(("poly", p))
    return atoms


def reconstruct_global(points, series_data, pole_bound: int):
    """The unique global rational section matching all the expansions, or
    None when no such section exists (the residue criterion then fails)."""
    _check_marked_points(points)
    atoms = section_atom_basis(points, pole_bound)
    ncomp = len(series_data[0])
    all_coeffs = []
    for u in range(ncomp):
        rows, rhs = [], []
        for j, x in enumerate(points):
            s = series_data[j][u]
            hi = s.trunc
            if hi is None:
                hi = (s.degree() if s.degree() is not None else 0) + pole_bound + 2
            cols = [_section_atom_expansion(atom, x, int(hi) + 1) for atom in atoms]
            e = Fraction(-pole_bound)
            while e < hi:
                rows.append([col.terms.get(e, S0) for col in cols])
                rhs.append(s.terms.get(e, S0))
                e += 1
        sol = linalg.solve(rows, rhs)
        if sol is None:
            return None
        all_coeffs.append(sol[0])
    return GlobalSection(points, pole_bound, atoms, all_coeffs)

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
from fractions import Fraction

from . import linalg
from .scalars import Scalar, binomial, exact_pow, stored
from .series import FracLaurent, _lower_bound
from .voa import CutoffOverflow, DualModule, GradedVector, HeisenbergAlgebra, _acc, dual_pairing

INF = "infinity"  # marked-point sentinel for the point at infinity


def _stored_points(points, series_data):
    # the marked points, stored, once distinct and matched by equally long data
    if not points:
        raise ValueError("at least one marked point is needed")
    if len(series_data) != len(points) or len({len(comps) for comps in series_data}) != 1:
        raise ValueError("every marked point needs expansion data with the same number of components")
    points = [x if x is INF else stored(x) for x in points]
    if len(set(points)) != len(points):
        raise ValueError("marked points must be pairwise distinct")
    return points


# ---------------------------------------------------------------------------
# symbolic rational functions of insertion points


class RationalExpr:
    """Sum of terms coef * prod z_i^e_i * prod (z_i - z_j)^e_ij (i < j).

    Coefficients are stored values (``scalars.stored``), or formal series
    when a parameter rides along.  This normal form is closed under the
    arithmetic the Wick oracle needs and supports exact evaluation,
    substitution of series for the points, and chamber expansions.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: dict[(zpows, dpows) -> coef] with zpows/dpows sorted tuples
        self.terms = {}
        for key, c in (terms or {}).items():
            c = stored(c)
            if c or (isinstance(c, FracLaurent) and c.trunc is not None):  # a truncated zero is no zero
                self.terms[key] = c

    @staticmethod
    def term(coef, zpows=None, dpows=None) -> "RationalExpr":
        zp = tuple(sorted((i, e) for i, e in (zpows or {}).items() if e != 0))
        dp = tuple(sorted(((i, j), e) for (i, j), e in (dpows or {}).items() if e != 0))
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
        """Exact value, a Scalar, at pairwise distinct scalar points."""
        pts = {i: stored(p) for i, p in points.items()}
        total = 0
        for (zp, dp), c in self.terms.items():
            val = c
            for i, e in zp:
                val = val * exact_pow(pts[i], e)
            for (i, j), e in dp:
                diff = pts[i] - pts[j]
                if not diff:
                    raise ZeroDivisionError("coincident insertion points")
                val = val * exact_pow(diff, e)
            total = total + val
        return Scalar._coerce(total)

    def substitute(self, points: dict, var: str, trunc) -> FracLaurent:
        """Substitute a FracLaurent (or scalar, treated as constant) for each
        point and return the resulting series in ``var``.

        Every term is expanded until it is known below x^trunc, counting from
        its lowest exponent, and the sum is truncated there; a truncated point
        still caps the result's truncation below ``trunc``.
        """

        pts = {i: p if isinstance(p, FracLaurent) else FracLaurent(var, 1, {0: p}) for i, p in points.items()}
        lat = 1
        for p in pts.values():
            lat = lat * p.k // math.gcd(lat, p.k)
        total = FracLaurent.zero(var, lat, trunc)
        for (zp, dp), c in self.terms.items():
            if isinstance(c, FracLaurent):
                val = c.rename(var)
            else:
                val = FracLaurent(var, 1, {Fraction(0): c})
            factors = [(pts[i], e) for i, e in zp] + [(pts[i] - pts[j], e) for (i, j), e in dp]
            low = _lower_bound(val)
            for f, e in factors:
                bound = _lower_bound(f)
                if bound is None:  # an exact-zero factor
                    if e < 0:
                        raise ZeroDivisionError("coincident insertion points")
                    low = trunc  # the term vanishes
                    break
                low += e * bound
            if low >= trunc:
                continue  # nothing of this term lies below x^trunc
            order = trunc - low
            for f, e in factors:
                val = val * (f**e if e >= 0 else f.inverse(order) ** -e)
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
                    coef = binomial(e, m) * (-1) ** (m % 2) * sign
                    if coef == 0:
                        continue
                    key = [0] * n
                    key[pos[small]] = m
                    key[pos[big]] = e - m
                    fac[tuple(key)] = coef
                poly = _mpoly_mul(poly, fac)
            for k, v in poly.items():
                total[k] = total[k] + v if k in total else v
        return {k: v for k, v in ((k, stored(v)) for k, v in total.items()) if v}


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
    combos = [({}, 1)]
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
                    total = total + expr.scale(coef0 * wc * wpc * (1 / _gram_norm(wp_mono)))
    return total


def _wick_sum(sites, w_mono, wp_mono, lam, nsites) -> RationalExpr:
    # objects: ("site", i, p, norm), then ("out", nu), then ("in", mu); rec
    # pairs each object only with a later one
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
            coef = (-1) ** (p % 2) * math.factorial(p + q + 1) * np_ * nq
            return RationalExpr.term(coef, dpows={(i, j): -(p + q + 2)})
        if ka == "site" and kb == "out":
            _, i, p, norm = a
            _, nu = b
            coef = math.perm(nu, p + 1) * norm
            if coef == 0:
                return RationalExpr()
            return RationalExpr.term(coef, zpows={i: nu - 1 - p})
        if ka == "site" and kb == "in":
            _, i, p, norm = a
            _, mu = b
            coef = (-1) ** (p % 2) * math.perm(mu + p, p + 1) * norm
            return RationalExpr.term(coef, zpows={i: -mu - 1 - p})
        if ka == "out" and kb == "in":
            _, nu = a
            _, mu = b
            if nu != mu:
                return RationalExpr()
            return RationalExpr.term(nu)
        return RationalExpr()  # out-out and in-in never contract

    def lone(a) -> RationalExpr:
        if a[0] != "site" or not lam:
            return RationalExpr()
        _, i, p, norm = a
        return RationalExpr.term((-1) ** (p % 2) * math.factorial(p) * norm * lam, zpows={i: -1 - p})

    def rec(remaining) -> RationalExpr:
        if not remaining:
            return RationalExpr.term(1)
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


class PropagationResult:
    """The truncated block value, its per-grade shells (grade, Scalar) in
    grade order, the heuristic tail estimate and whether the value is exact."""

    __slots__ = ("value", "shells", "tail_estimate", "exact")

    def __init__(self, value: Scalar, shells: list, tail_estimate: float, exact: bool):
        self.value = value
        self.shells = shells
        self.tail_estimate = tail_estimate
        self.exact = exact


def _field_modes(v: GradedVector, state: GradedVector, grades):
    """The modes of Y(v, z) on ``state`` that land at a grade in ``grades``:
    (e, vc sc, Y(vm)_n sm) with e = -n - 1 the exponent of z, for each
    monomial pair (vm, sm).  Mode n of sm lands at grade top - n with
    top = wt vm + wt sm - 1, so each grade d in ``grades`` (distinct, >= 0)
    costs the one mode n = top - d; the modes run from low n to high.  The
    only loop from output grades to ``mode_mono`` calls: ``_apply_field``,
    ``propagate_expand`` and the twisted generator formula run it."""
    module = state.space
    alg = module.algebra
    downward = sorted(grades, reverse=True)
    for vm, vc in v.terms.items():
        wtv = alg.weight(vm)
        for sm, sc in state.terms.items():
            top = wtv + module.weight(sm) - 1
            vs = vc * sc
            for d in downward:
                n = top - d
                res = alg.mode_mono(vm, n, sm, module)
                if res:
                    yield -n - 1, vs, res


def _apply_field(v: GradedVector, z, state: GradedVector, grades, zpows=None) -> GradedVector:
    """sum_n z^{-n-1} Y(v)_n state, keeping only the output grades in
    ``grades``: the modes of ``_field_modes`` summed at a number z.
    ``zpows`` maps an exponent e to the stored value z^e; calls with the same
    z may share it."""
    if zpows is None:
        zpows = {}
    z = stored(z)
    acc = {}
    for e, vs, res in _field_modes(v, state, grades):
        zn = zpows.get(e)
        if zn is None:
            zn = zpows[e] = exact_pow(z, e)
        zf = zn * vs
        for m, c in res.items():
            acc[m] = acc[m] + c * zf if m in acc else c * zf
    return GradedVector(state.space, acc)


def _modulus(z):
    # |z| of a stored point, exact: the radial order is decided for rational points only
    if isinstance(z, Scalar):
        raise ValueError(f"the modulus of the point {z} cannot be compared exactly; use rational points")
    return abs(z)


def radial_points(vs, zs) -> list:
    """The stored points of the insertions ``vs``: one per insertion, off
    the origin, with strictly increasing moduli."""
    if len(vs) != len(zs):
        raise ValueError("insertion vectors and points must match up")
    zs = [stored(z) for z in zs]
    if not all(zs):
        raise ValueError("insertion points must avoid the origin")
    mags = [_modulus(z) for z in zs]
    if not all(a < b for a, b in zip(mags, mags[1:])):
        raise ValueError("insertion points violate radial ordering")
    return zs


def propagate_eval(vs, zs, w: GradedVector, wp: GradedVector, cutoff: int) -> PropagationResult:
    """Truncated iterated sum <Y(v_n,z_n)...Y(v_1,z_1) w, w'>.

    Requires strictly increasing moduli 0 < |z_1| < ... < |z_n|.  Shells are
    indexed by the grade of the intermediate state just before the last
    insertion, one per grade that state reaches, zeros included; their
    magnitudes feed a geometric-ratio tail estimate.  Each insertion is the
    one field application ``_apply_field``: the inner ones keep every grade
    up to ``cutoff``, the last one only the grades of w', since the other
    modes pair to zero with it, so the shells are those of the full sum.
    """
    zs = radial_points(vs, zs)
    needed = max(w.max_weight(), wp.max_weight())
    if needed > cutoff:
        raise CutoffOverflow(needed, cutoff)
    if not vs:
        val = dual_pairing(w, wp)
        return PropagationResult(val, [(w.max_weight(), val)], 0.0, True)
    state = w
    for v, z in zip(vs[:-1], zs[:-1]):
        state = _apply_field(v, z, state, range(cutoff + 1))
    shells = []
    zpows = {}
    wp_grades = _grades(wp)
    for g, part in sorted(state.weight_components().items()):
        acted = _apply_field(vs[-1], zs[-1], part, wp_grades, zpows)
        shells.append((g, dual_pairing(acted, wp)))
    total = Scalar._coerce(sum(s for _, s in shells))
    return PropagationResult(total, shells, _tail_estimate(shells), len(vs) <= 1)


def _grades(vec: GradedVector) -> set:
    return {vec.space.weight(m) for m in vec.terms}


def _tail_estimate(shells) -> float:
    # a geometric tail from the ratio of the last two nonzero shells
    vals = [abs(s.to_complex()) for _, s in shells if not s.is_zero()]
    if not vals:
        return 0.0
    last = vals[-1]
    if len(vals) >= 2 and vals[-2] > 0:
        r = last / vals[-2]
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
    Each insertion is the one field application ``_field_modes`` with z
    kept formal: its modes go into one state per exponent prefix, each
    paired with w' at the end, and the last insertion keeps only the grades
    of w' up to shell_cap.
    """
    states = {(): w}
    inner = range(shell_cap + 1)
    last = [d for d in _grades(wp) if d <= shell_cap]
    for i, v in enumerate(vs):
        nxt = {}
        for prefix, state in states.items():
            for e, coef, res in _field_modes(v, state, last if i == len(vs) - 1 else inner):
                tgt = nxt.setdefault(prefix + (e,), {})
                for m, c in res.items():
                    _acc(tgt, m, c * coef)
        states = {key: GradedVector(w.space, terms) for key, terms in nxt.items()}
    pairs = ((key, dual_pairing(state, wp)) for key, state in states.items())
    return {key: val for key, val in pairs if val}


def permutation_check(vs, zs, w, wp, cutoff=None, tol=None) -> bool:
    """Insertion-permutation symmetry: simultaneous reordering of the
    vectors and points leaves the block value unchanged.

    With distinct moduli both orderings are evaluated after radial
    re-sorting; on the oracle path (cutoff None) the comparison is exact,
    on the series path it holds to the given tail tolerance.
    """
    zs = [stored(z) for z in zs]
    order = sorted(range(len(zs)), key=lambda i: _modulus(zs[i]))
    vs_sorted = [vs[i] for i in order]
    zs_sorted = [zs[i] for i in order]
    if cutoff is None:
        expr_a = heisenberg_correlator(vs, w, wp)
        val_a = expr_a.evaluate({i: z for i, z in enumerate(zs)})
        expr_b = heisenberg_correlator(vs_sorted, w, wp)
        val_b = expr_b.evaluate({i: z for i, z in enumerate(zs_sorted)})
        return (val_a - val_b).is_zero()
    res = propagate_eval(vs_sorted, zs_sorted, w, wp, cutoff)
    oracle = heisenberg_correlator(vs, w, wp).evaluate(dict(enumerate(zs)))
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
            forms.append([(("pole", x, m), 1)])
    if has_inf:
        for p in range(0, bound - 1):
            forms.append([(("poly", p), 1)])
    else:
        x0 = finite[0]
        for x in finite[1:]:
            forms.append([(("pole", x, 1), 1), (("pole", x0, 1), -1)])
    return forms


def residue_criterion(points, series_data, pole_bound: int, dual_pole_bound: int) -> bool:
    """True iff sum_j Res_j <s_j, sigma> = 0 for every global dual form sigma
    with pole order <= dual_pole_bound.

    ``series_data[j][u]``: the u-th component of the local expansion at the
    j-th marked point, a FracLaurent in the local coordinate there, known at
    least through exponent dual_pole_bound - 1 and with valuation >= -pole_bound.
    """
    points = _stored_points(points, series_data)
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
            total = 0
            for j, x in enumerate(points):
                s = series_data[j][u]
                if s.is_zero():
                    continue
                f = FracLaurent.zero("z", 1)
                for atom, coef in form:
                    f = f + _form_atom_expansion(atom, x, pole_bound + dual_pole_bound).scale(coef)
                total = total + (s.rename("z") * f).stored_coeff(-1)
            if total:
                return False
    return True


class GlobalSection:
    """A rank-r global rational section on the sphere with bounded poles at
    the marked points, stored as coefficients over the atom basis."""

    def __init__(self, points, pole_bound, atom_basis, coeffs):
        self.points = points
        self.pole_bound = pole_bound
        self.atoms = atom_basis
        self.coeffs = coeffs  # per component: list of stored values over atoms

    def expand_at(self, j: int, order: int):
        """Local expansions [per component] at the j-th marked point."""
        x = self.points[j]
        out = []
        for comp in self.coeffs:
            total = FracLaurent.zero("z", 1, trunc=order)
            for atom, c in zip(self.atoms, comp):
                if c:
                    total = total + _section_atom_expansion(atom, x, order).scale(c)
            out.append(total.truncate(order))
        return out

    def evaluate(self, zeta) -> list:
        """The value of each component at zeta, as Scalars."""
        zeta = stored(zeta)
        out = []
        for comp in self.coeffs:
            val = 0
            for atom, c in zip(self.atoms, comp):
                if not c:
                    continue
                if atom[0] == "pole":
                    _, x, m = atom
                    val = val + c * exact_pow(zeta - x, -m)
                else:
                    val = val + c * zeta ** atom[1]
            out.append(Scalar._coerce(val))
        return out


def _section_atom_expansion(atom, point, order) -> FracLaurent:
    # Expansion of a section atom (function, not 1-form) at a marked point;
    # the points are stored values (see _stored_points).
    kind = atom[0]
    if point is not INF:
        if kind == "pole":
            _, x, m = atom
            base = point - x
            if not base:
                return FracLaurent("z", 1, {-m: 1})
            terms = {t: binomial(-m, t) * exact_pow(base, -m - t) for t in range(order + m + 1)}
            return FracLaurent("z", 1, terms, order + m + 1)
        _, p = atom
        return FracLaurent("z", 1, {t: binomial(p, t) * point ** (p - t) for t in range(p + 1)})
    if kind == "pole":
        _, x, m = atom
        # (1/z - x)^(-m) = z^m (1 - x z)^(-m)
        terms = {m + t: binomial(-m, t) * (-x) ** t for t in range(order + 3)}
        return FracLaurent("z", 1, terms, order + m + 1)
    _, p = atom
    return FracLaurent("z", 1, {-p: 1})


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
    None when no such section exists (the residue criterion then fails).
    ValueError when the expansions fit more than one section."""
    points = _stored_points(points, series_data)
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
                rows.append([col.terms.get(e, 0) for col in cols])
                rhs.append(s.terms.get(e, 0))
                e += 1
        sol = linalg.solve(rows, rhs, len(atoms))
        if sol is None:
            return None
        if not sol[1]:
            raise ValueError("the expansions fit more than one global section; give more terms")
        all_coeffs.append(sol[0])
    return GlobalSection(points, pole_bound, atoms, all_coeffs)

"""Permutation-twisted modules over tensor-power algebras, built geometrically.

For the cyclic rotation g of V^(x)k and a Heisenberg Fock module W, the
twisted vertex operators are realized on W itself with modes in (1/k)Z.
Everything is computed in the k-th root variable t with z = t^k, which keeps
all data on one exact exponent lattice: the matrix-element generating series

    <Y^g(v_1 (x) ... (x) v_k, z) w, w'>

is the k-point propagated pairing block, with the i-th slot vector carried
from the z^k-chart to the z-chart at the root point w_k^i t (the correction
is the k-th-root coordinate change at that point), evaluated by the Wick
oracle.  The coefficient of t^(-kn-k) is the mode at index n.

Two construction paths coexist and must agree where both apply: the
generator formula (one non-vacuum slot, any base algebra reachable through
coordinate changes) and the k-point oracle (Heisenberg, any slots).
"""

from __future__ import annotations

from fractions import Fraction

from .blocks import _apply_field, heisenberg_correlator
from .coordchange import apply_coord_change, kth_root_shift
from .scalars import Scalar
from .series import FracLaurent, binomial_expand
from .voa import (
    CutoffOverflow,
    FockModule,
    GradedVector,
    HeisenbergAlgebra,
    TensorPowerAlgebra,
    cycle_rotate,
    dual_of,
    dual_pairing,
    jacobi_sweep,
    mode_action,
    tensor_vector,
)

S0 = Scalar.integer(0)
S1 = Scalar.integer(1)

TVAR = "t"


def _chart_corrected(k: int, v: GradedVector, point) -> GradedVector:
    """Carry v from the z^k-chart to the z-chart at the root point ``point``:
    the k-th-root coordinate change there, to the order v's weight needs."""
    return apply_coord_change(kth_root_shift(k, v.max_weight() + 1, point), v)


class TwistedModule:
    """The g-twisted V^(x)k-module structure on a Heisenberg Fock module W.

    The twisted grading operator is (1/k) of the grading of W, so twisted
    weights lie in (1/k)N with finite-dimensional eigenspaces.  Mode data is
    populated lazily and memoized per (vector, in-state, out-state), and each
    chart-corrected slot vector per exact (base monomial, slot)."""

    def __init__(self, module: FockModule, k: int):
        if not isinstance(module.algebra, HeisenbergAlgebra):
            raise ValueError(
                "the exactly computable catalogue needs a Heisenberg base; "
                "other algebras only support the generator path"
            )
        if k < 1:
            raise ValueError(f"the twist order k must be a positive integer, got {k}")
        self.module = module
        self.k = k
        self.tensor = TensorPowerAlgebra(module.algebra, k)
        self.dual = dual_of(module)
        self._series = {}
        self._gen_series = {}
        self._corrected = {}

    # ---- gradings ------------------------------------------------------

    def mode_index_lattice(self, n) -> Fraction:
        n = Fraction(n)
        if (n * self.k).denominator != 1:
            raise ValueError(f"mode index {n} is not in (1/{self.k})Z")
        return n

    # ---- the two construction paths -------------------------------------

    def root_points(self):
        """The k-tuple of root positions (w_k^i t) as exact monomials."""
        k = self.k
        return [
            FracLaurent.monomial(TVAR, 1, Scalar.root_of_unity(k, i)) for i in range(k)
        ]

    def slot_corrected(self, mono, slot: int) -> GradedVector:
        """The base state ``mono`` carried to the root point w_k^slot t of
        its slot (see ``_chart_corrected``), computed once per module."""
        key = (tuple(mono), slot)
        hit = self._corrected.get(key)
        if hit is None:
            point = FracLaurent.monomial(TVAR, 1, Scalar.root_of_unity(self.k, slot))
            hit = _chart_corrected(self.k, GradedVector.state(self.tensor.base, mono), point)
            self._corrected[key] = hit
        return hit

    def pairing_series(self, u: GradedVector, w_mono, wp_mono) -> FracLaurent:
        """<Y^g(u, z) w, w'> as an exact Laurent polynomial in t = z^(1/k)."""
        if u.space is not self.tensor:
            raise ValueError("u must be a tensor-power vector")
        key = (frozenset(u.terms.items()), w_mono, wp_mono)
        hit = self._series.get(key)
        if hit is not None:
            return hit
        pts = self.root_points()
        w = GradedVector.state(self.module, w_mono)
        wp = GradedVector.state(self.dual, wp_mono)
        total = FracLaurent.zero(TVAR, 1)
        for mono, coef in u.terms.items():
            slots = [self.slot_corrected(m, i) for i, m in enumerate(mono)]
            expr = heisenberg_correlator(slots, w, wp)
            if expr.is_zero():
                continue
            total = total + expr.substitute(dict(enumerate(pts)), TVAR).scale(coef)
        self._series[key] = total
        return total

    def generator_series(self, v: GradedVector, w_mono, wp_mono) -> FracLaurent:
        """Generator-path series: Y^g(v (x) 1 ... (x) 1, z) = Y(Dv, t) with D
        the k-th-root coordinate change in the symbolic variable t."""
        base = self.tensor.base
        if v.space is not base:
            raise ValueError("v must live in the base algebra")
        key = (frozenset(v.terms.items()), w_mono, wp_mono)
        hit = self._gen_series.get(key)
        if hit is not None:
            return hit
        # the root point of slot 0 is t itself; the coordinate action is linear
        x = GradedVector(base)
        for vm, c in v.terms.items():
            x = x + self.slot_corrected(vm, 0).scale(c)
        w = GradedVector.state(self.module, w_mono)
        total = FracLaurent.zero(TVAR, 1)
        wp = GradedVector.state(self.dual, wp_mono)
        wt_w = self.module.weight(w_mono)
        wt_wp = self.module.weight(wp_mono)
        for b, coef in x.terms.items():
            # only the mode landing on the out-grade pairs nontrivially
            m = base.weight(b) + wt_w - wt_wp - 1
            res = base.mode_mono(b, m, w_mono, self.module)
            val = res.get(wp_mono)
            if val is None:
                continue
            contrib = coef.shift(-m - 1).scale(val) if isinstance(coef, FracLaurent) else None
            if contrib is None:
                contrib = FracLaurent.monomial(TVAR, 0, val * coef).shift(-m - 1)
            total = total + contrib
        self._gen_series[key] = total
        return total

    # ---- modes -----------------------------------------------------------

    def matrix_element(self, u: GradedVector, n, w_mono, wp_mono) -> Scalar:
        n = self.mode_index_lattice(n)
        series = self.pairing_series(u, w_mono, wp_mono)
        return series.coeff(-self.k * n - self.k)

    def full_mode_element(self, u: GradedVector, n, w: GradedVector, wp: GradedVector) -> Scalar:
        """<Y^g(u)_n w, w'> for arbitrary vectors, through the k-point oracle."""
        total = S0
        for wm, wc in w.terms.items():
            for pm, pc in wp.terms.items():
                total = total + self.matrix_element(u, n, wm, pm) * wc * pc
        return total

    def _single_slot(self, mono):
        nz = [(i, m) for i, m in enumerate(mono) if m != ()]
        if not nz:
            return 0, ()
        if len(nz) == 1:
            return nz[0]
        return None

    def slot_mode_apply(self, v_mono, slot: int, n, w: GradedVector) -> GradedVector:
        """Y^g of a vector occupying one tensor slot: the generator formula
        carried to the root point w_k^slot t, so only mode actions of the
        base algebra are needed."""
        n = self.mode_index_lattice(n)
        base = self.tensor.base
        kn = int(self.k * n)
        phase_base = Scalar.root_of_unity(self.k, slot)
        x = self.slot_corrected(v_mono, slot)
        out = GradedVector(self.module)
        for b, coef in x.terms.items():
            bvec = GradedVector.state(base, b)
            exps = coef.terms.items() if isinstance(coef, FracLaurent) else [(Fraction(0), coef)]
            for e, ce in exps:
                m = int(e) + kn + self.k - 1
                acted = mode_action(bvec, m, w)
                if not acted.is_zero():
                    out = out + acted.scale(ce * phase_base ** (-m - 1))
        return out

    def mode_apply(self, u: GradedVector, n, w: GradedVector) -> GradedVector:
        """Y^g(u)_n w; single-slot tensor monomials go through the generator
        formula, genuinely multi-slot ones through the k-point oracle."""
        n = self.mode_index_lattice(n)
        out = GradedVector(self.module)
        oracle_parts = {}
        for mono, coef in u.terms.items():
            single = self._single_slot(mono)
            if single is not None:
                slot, vm = single
                out = out + self.slot_mode_apply(vm, slot, n, w).scale(coef)
            else:
                oracle_parts[mono] = coef
        if oracle_parts:
            rest = GradedVector(self.tensor, oracle_parts)
            for alpha, u_part in rest.weight_components().items():
                for b, w_part in w.weight_components().items():
                    target = self.k * alpha + b - int(self.k * n) - self.k
                    if target < 0:
                        continue
                    if target > self.module.cutoff:
                        raise CutoffOverflow(target, self.module.cutoff)
                    for wm, wc in w_part.terms.items():
                        for out_mono in self.module.basis(target):
                            val = self.matrix_element(u_part, n, wm, out_mono)
                            if not val.is_zero():
                                out = out + GradedVector.state(self.module, out_mono, val * wc)
        return out

    def generator_mode_apply(self, v: GradedVector, n, w: GradedVector) -> GradedVector:
        """Y^g(v (x) 1 ... (x) 1)_n w through the generator formula: the
        slot-0 case of ``slot_mode_apply``, whose root point is t itself."""
        out = GradedVector(self.module)
        for vm, c in v.terms.items():
            out = out + self.slot_mode_apply(vm, 0, n, w).scale(c)
        return out

    def mode_support(self, u: GradedVector, w: GradedVector, wp: GradedVector):
        """All n with <Y^g(u)_n w, w'> nonzero, from the generating series."""
        total = FracLaurent.zero(TVAR, 1)
        for wm, wc in w.terms.items():
            for pm, pc in wp.terms.items():
                total = total + self.pairing_series(u, wm, pm).scale(wc * pc)
        return sorted(-(e / self.k) - 1 for e in total.terms)


# ---------------------------------------------------------------------------
# axiom checks


def factorization_check(tw: TwistedModule, u_slots, v_slots, w, wp, s_z, s_xi, shell_cutoff: int):
    """Graded-intermediate-sum factorization of the twisted two-point
    composition: sum over shells of pairings at the z-roots times pairings
    at the xi-roots, against the single 2k-point oracle value.

    z = s_z^k and xi = s_xi^k must be exact k-th powers with |z| < |xi| so
    every root point is an exact cyclotomic scalar.  Returns
    (relative_error_float, partial_sum, oracle_value, shells)."""
    k = tw.k
    zpts = [Scalar.root_of_unity(k, i) * s_z for i in range(k)]
    xipts = [Scalar.root_of_unity(k, i) * s_xi for i in range(k)]
    cu = [_chart_corrected(k, v, p) for v, p in zip(u_slots, zpts)]
    cv = [_chart_corrected(k, v, p) for v, p in zip(v_slots, xipts)]
    both = heisenberg_correlator(cu + cv, w, wp)
    pts = dict(enumerate(zpts + xipts))
    oracle = both.evaluate(pts)

    # With at most one non-vacuum z-slot the field applied to w has exact
    # graded coefficients, so only its (sparse) support meets the Casimir
    # shells; otherwise every shell is priced through the exact oracle.
    nontrivial = [(v, p) for v, p in zip(cu, zpts) if list(v.terms) != [()]]
    shells = []
    total = S0
    if len(nontrivial) <= 1:
        state = w
        for v, p in nontrivial:
            state = _apply_field(v, p, state, shell_cutoff)
        comps = state.weight_components()
        for g in range(shell_cutoff + 1):
            shell = S0
            part = comps.get(g)
            if part is not None:
                for mono, coef in part.terms.items():
                    b_val = heisenberg_correlator(
                        cv, GradedVector.state(tw.module, mono), wp
                    ).evaluate(dict(enumerate(xipts)))
                    shell = shell + coef * b_val
            shells.append((g, shell))
            total = total + shell
    else:
        for g in range(shell_cutoff + 1):
            shell = S0
            for mono in tw.module.basis(g):
                a_val = heisenberg_correlator(
                    cu, w, GradedVector.state(tw.dual, mono)
                ).evaluate(dict(enumerate(zpts)))
                if a_val.is_zero():
                    continue
                b_val = heisenberg_correlator(
                    cv, GradedVector.state(tw.module, mono), wp
                ).evaluate(dict(enumerate(xipts)))
                shell = shell + a_val * b_val
            shells.append((g, shell))
            total = total + shell
    err = abs((total - oracle).to_complex())
    denom = abs(oracle.to_complex())
    rel = err / denom if denom else err
    return rel, total, oracle, shells


def product_expansion_check(tw: TwistedModule, u: GradedVector, v_slots, w, wp, s_xi, order: int = 5):
    """Composition consistency: expanding the oracle function in the
    difference kappa = z_1^k - xi around the principal root reproduces the
    mode composition <Y^g(Y(u, x_1) v_1 (x) v_2 ... , xi) w, w'>|_{x_1 = kappa}
    coefficient by coefficient.

    Returns (ok, lhs_series, rhs_series) with both series in kappa."""
    k = tw.k
    xi = s_xi**k
    kv = "x1"
    wt_u = u.homogeneous_weight()
    wt_v1 = v_slots[0].homogeneous_weight()
    depth = wt_u + wt_v1 + w.max_weight() + 2  # deepest possible pole in kappa
    work = order + depth + 4
    rel = FracLaurent.monomial(kv, 1, xi.inverse())
    z1 = binomial_expand(s_xi, rel, Fraction(1, k), work)
    xipts = [Scalar.root_of_unity(k, i) * s_xi for i in range(k)]
    cu = _chart_corrected(k, u, z1)
    cv = [_chart_corrected(k, v, p) for v, p in zip(v_slots, xipts)]
    expr = heisenberg_correlator([cu] + cv, w, wp)
    pts = {0: z1}
    for i, p in enumerate(xipts):
        pts[i + 1] = FracLaurent(kv, 1, {Fraction(0): p})
    lhs = expr.substitute(pts, kv, order=work).truncate(order)

    rhs = FracLaurent.zero(kv, 1, trunc=order)
    for m in range(-order - 1, wt_u + wt_v1):
        inner = mode_action(u, m, v_slots[0])
        if inner.is_zero():
            continue
        total = S0
        composed = tensor_vector(tw.tensor, [inner] + list(v_slots[1:]))
        for wm, wc in w.terms.items():
            for pm, pc in wp.terms.items():
                series = FracLaurent.zero(TVAR, 1)
                for mono, coef in composed.terms.items():
                    series = series + tw.pairing_series(
                        GradedVector(tw.tensor, {mono: S1}), wm, pm
                    ).scale(coef)
                total = total + series.evaluate(s_xi) * wc * pc
        if not total.is_zero():
            rhs = rhs + FracLaurent.monomial(kv, -m - 1, total)
    rhs = rhs.truncate(order)
    ok = (lhs - rhs).truncate(order).is_zero()
    return ok, lhs, rhs


def eigencomponents(u: GradedVector, k: int) -> dict:
    """Decompose a tensor vector into g-eigencomponents u_j with
    g u_j = e^(2 pi i j / k) u_j; modes of u_j live on j/k + Z."""
    comps = {}
    for j in range(k):
        acc = GradedVector(u.space)
        cur = u
        for i in range(k):
            acc = acc + cur.scale(Scalar.root_of_unity(k, i * j))
            cur = cycle_rotate(cur)
        acc = acc.scale(Scalar.rational(1, k))
        if not acc.is_zero():
            comps[j] = acc
    return comps


def check_grading(tw: TwistedModule, vectors, states, n_values) -> bool:
    """[L0^g, Y^g(u)_n] = Y^g(L0 u)_n - (n+1) Y^g(u)_n, exactly.

    Sampled over the given tensor vectors, module states, and mode indices;
    homogeneity of images (the weight-shift rule) is what the bracket
    amounts to, and is what gets verified literally here."""
    for u in vectors:
        for w in states:
            for n in n_values:
                n = Fraction(n)
                try:
                    img = tw.mode_apply(u, n, w)
                except CutoffOverflow:
                    continue
                lhs = _scale_by_twisted_weight(tw, img) - tw.mode_apply(
                    u, n, _scale_by_twisted_weight(tw, w)
                )
                alpha = u.homogeneous_weight()
                rhs = img.scale(Scalar.from_fraction(Fraction(alpha) - n - 1))
                if not (lhs - rhs).is_zero():
                    return False
    return True


def _scale_by_twisted_weight(tw, vec):
    out = GradedVector(vec.space)
    for h, part in vec.weight_components().items():
        out = out + part.scale(Scalar.from_fraction(Fraction(h, tw.k)))
    return out


def check_equivariance(tw: TwistedModule, vectors, w_monos, wp_monos) -> bool:
    """Y^g(g u)_n = w_k^(-m) Y^g(u)_n at n = m/k, as exact cyclotomic
    identities of the full generating series."""
    k = tw.k
    for u in vectors:
        gu = cycle_rotate(u)
        for wm in w_monos:
            for pm in wp_monos:
                s_u = tw.pairing_series(u, wm, pm)
                s_gu = tw.pairing_series(gu, wm, pm)
                # compare coefficient of t^e: n = -(e+k)/k, m = kn
                exps = set(s_u.terms) | set(s_gu.terms)
                for e in exps:
                    m = -(int(e) + k)
                    phase = Scalar.root_of_unity(k, -m % k)
                    lhs = s_gu.terms.get(e, S0)
                    rhs = phase * s_u.terms.get(e, S0)
                    if not (lhs - rhs).is_zero():
                        return False
    return True


def check_jacobi(
    tw: TwistedModule,
    u: GradedVector,
    v: GradedVector,
    w: GradedVector,
    wp: GradedVector,
    m_values,
    n_values,
    h_values,
):
    """The twisted Jacobi identity, evaluated exactly on <. w, w'>:

    sum_l C(j/k+m, l) <Y^g(Y(u_j)_{n+l} v)_{j/k+m+h-l} w, w'>
      = sum_l C(n,l) (-1)^l     <Y^g(u_j)_{j/k+m+n-l} Y^g(v)_{h+l} w, w'>
      - sum_l C(n,l) (-1)^(n-l) <Y^g(v)_{n+h-l} Y^g(u_j)_{j/k+m+l} w, w'>

    for each g-eigencomponent u_j of u.  Returns (ok, worst_violation)."""
    k = tw.k
    worst = 0.0
    ok = True
    # the difference vector has grade k (wt_u + wt_v - mu - n - h - 2) + wt_w,
    # so only that grade of w' can pair with it; jacobi_sweep checks that u,
    # v and w are homogeneous
    wt_wp = wp.homogeneous_weight()
    top = k * (u.max_weight() + v.max_weight() - 2) + w.max_weight()
    for j, uj in eigencomponents(u, k).items():
        instances = [
            (mu, n, h)
            for mu in (Fraction(j, k) + m for m in m_values)
            for n in n_values
            for h in map(Fraction, h_values)
            if top - int(k * (mu + n + h)) == wt_wp
        ]
        for diff in jacobi_sweep(tw.mode_apply, uj, v, w, instances, k):
            val = dual_pairing(diff, wp)
            if not val.is_zero():
                ok = False
                worst = max(worst, abs(val.to_complex()))
    return ok, worst

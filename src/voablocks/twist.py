"""Permutation-twisted modules over tensor-power algebras, built geometrically.

For the cyclic rotation g of V^(x)k and a Heisenberg Fock module W, the
twisted vertex operators are realized on W itself with modes in (1/k)Z.
In the k-th root variable t = z^(1/k) the matrix-element generating series

    <Y^g(v_1 (x) ... (x) v_k, z) w, w'>

is the k-point propagated pairing block, with the i-th slot vector carried
from the z^k-chart to the z-chart at the root point w_k^i t (the correction
is the k-th-root coordinate change at that point), evaluated by the Wick
oracle.  The coefficient of t^(-kn-k) is the mode at index n.  By
L_0-covariance the block of a homogeneous u between basis states is one
monomial c t^(wt w' - wt w - k wt u), so everything is computed at t = 1, at
the exact root points w_k^i, and t appears only in the series handed out, at
the exponent the grading fixes.

Two construction paths coexist and must agree where both apply, and each has
one implementation.  The generator formula (one non-vacuum slot, any base
algebra reachable through coordinate changes) is ``slot_mode_apply``; the
generator path's modes and series are its slot-0 sum and the pairings of
that sum.  The k-point oracle (Heisenberg, any slots) is ``pairing_series``,
extended bilinearly to vectors w and w' by ``_matrix_series``.  A module
computes each generator-formula mode on a basis state once.
"""

from __future__ import annotations

from fractions import Fraction

from .blocks import _apply_field, heisenberg_correlator
from .coordchange import apply_coord_change, kth_root_shift
from .scalars import MAX_CYCLOTOMIC_ORDER, Scalar, reciprocal, stored
from .series import FracLaurent, binomial_expand
from .voa import (
    CutoffOverflow,
    FockModule,
    GradedVector,
    HeisenbergAlgebra,
    TensorPowerAlgebra,
    _acc,
    cycle_rotate,
    dual_of,
    dual_pairing,
    jacobi_sweep,
    mode_action,
    tensor_vector,
)

S0 = Scalar.integer(0)

TVAR = "t"


def _chart_corrected(k: int, v: GradedVector, point) -> GradedVector:
    """Carry v from the z^k-chart to the z-chart at the root point ``point``:
    the k-th-root coordinate change there, to the order v's weight needs."""
    return apply_coord_change(kth_root_shift(k, v.max_weight() + 1, point), v)


def _root_points(k: int, s) -> list:
    """The root points w_k^i s of the k slots, i in range(k), as stored
    exact scalars for a number s."""
    return [stored(Scalar.root_of_unity(k, i) * s) for i in range(k)]


class TwistedModule:
    """The g-twisted V^(x)k-module structure on a Heisenberg Fock module W.

    The twisted grading operator is (1/k) of the grading of W, so twisted
    weights lie in (1/k)N with finite-dimensional eigenspaces.  Three caches
    fill lazily, each keyed on exact values and holding values at t = 1:
    ``_oracle_values`` the Wick oracle's value at the root points per
    (tensor monomial, w monomial, w' monomial), ``_slot_modes`` the
    generator formula's stored terms per (base monomial, slot, kn, w
    monomial), ``_corrected`` the chart-corrected slot vector per (base
    monomial, slot).  A value is stored only once computed in full."""

    def __init__(self, module: FockModule, k: int):
        if not isinstance(module.algebra, HeisenbergAlgebra):
            raise ValueError(
                "the exactly computable catalogue needs a Heisenberg base; "
                "other algebras only support the generator path"
            )
        if k < 1:
            raise ValueError(f"the twist order k must be a positive integer, got {k}")
        if k > MAX_CYCLOTOMIC_ORDER:
            raise ValueError(f"the twist order k={k} exceeds the cyclotomic limit {MAX_CYCLOTOMIC_ORDER}")
        self.module = module
        self.k = k
        self.tensor = TensorPowerAlgebra(module.algebra, k)
        self.dual = dual_of(module)
        self._points = _root_points(k, 1)
        self._oracle_values = {}
        self._slot_modes = {}
        self._corrected = {}

    # ---- gradings ------------------------------------------------------

    def kn_index(self, n) -> int:
        """k n for a mode index n, which must lie in (1/k)Z."""
        kn = Fraction(n) * self.k
        if kn.denominator != 1:
            raise ValueError(f"mode index {n} is not in (1/{self.k})Z")
        return kn.numerator

    # ---- the two construction paths -------------------------------------

    def slot_corrected(self, mono, slot: int) -> GradedVector:
        """The base state ``mono`` carried to the root point w_k^slot of its
        slot at t = 1 (see ``_chart_corrected``), computed once per module."""
        key = (tuple(mono), slot)
        hit = self._corrected.get(key)
        if hit is None:
            if not 0 <= slot < self.k:
                raise ValueError(f"slot {slot} is not in range({self.k})")
            base_state = GradedVector.state(self.tensor.base, mono)
            hit = _chart_corrected(self.k, base_state, self._points[slot])
            self._corrected[key] = hit
        return hit

    def _oracle_value(self, mono, w_mono, wp_mono):
        # the k-point block of a tensor monomial between basis states at t = 1
        key = (mono, w_mono, wp_mono)
        hit = self._oracle_values.get(key)
        if hit is None:
            slots = [self.slot_corrected(m, i) for i, m in enumerate(mono)]
            w = GradedVector.state(self.module, w_mono)
            wp = GradedVector.state(self.dual, wp_mono)
            hit = stored(heisenberg_correlator(slots, w, wp).evaluate(dict(enumerate(self._points))))
            self._oracle_values[key] = hit
        return hit

    def pairing_series(self, u: GradedVector, w_mono, wp_mono) -> FracLaurent:
        """<Y^g(u, z) w, w'> as an exact Laurent polynomial in t = z^(1/k):
        each monomial of u contributes its oracle value at the exponent
        wt w' - wt w - k wt(monomial)."""
        if u.space is not self.tensor:
            raise ValueError("u must be a tensor-power vector")
        if not u.terms:  # no oracle call checks the states
            self.module.check_mono(w_mono)
            self.dual.check_mono(wp_mono)
        gap = self.module.weight(wp_mono) - self.module.weight(w_mono)
        terms = {}
        for mono, coef in u.terms.items():
            val = self._oracle_value(mono, w_mono, wp_mono)
            if val:
                _acc(terms, gap - self.k * self.tensor.weight(mono), val * coef)
        return FracLaurent(TVAR, 1, terms)

    def generator_series(self, v: GradedVector, w_mono, wp_mono) -> FracLaurent:
        """Generator-path series: Y^g(v (x) 1 ... (x) 1, z) = Y(Dv, t) with D
        the k-th-root coordinate change at t.  The
        weight-h component of v maps grade wt(w) into grade
        k h + wt(w) - kn - k, so it meets w' through one mode kn alone."""
        if v.space is not self.tensor.base:
            raise ValueError("v must live in the base algebra")
        k = self.k
        w_mono, wp_mono = tuple(w_mono), tuple(wp_mono)
        self.module.check_mono(w_mono)
        self.dual.check_mono(wp_mono)
        gap = self.module.weight(w_mono) - self.module.weight(wp_mono) - k
        terms = {}
        for h, part in v.weight_components().items():
            kn = k * h + gap
            terms[-kn - k] = sum(
                c * self._slot_mode(vm, 0, kn, w_mono).get(wp_mono, 0) for vm, c in part.terms.items()
            )
        return FracLaurent(TVAR, 1, terms)

    # ---- modes -----------------------------------------------------------

    def _matrix_series(self, u: GradedVector, w: GradedVector, wp: GradedVector) -> FracLaurent:
        # <Y^g(u, z) w, w'> for vectors w and w': pairing_series, bilinearly
        total = FracLaurent.zero(TVAR, 1)
        for wm, wc in w.terms.items():
            for pm, pc in wp.terms.items():
                total = total + self.pairing_series(u, wm, pm).scale(wc * pc)
        return total

    def _single_slot(self, mono):
        # (slot, monomial) of the one non-vacuum slot, (0, ()) for the vacuum
        nz = [(i, m) for i, m in enumerate(mono) if m != ()] or [(0, ())]
        return nz[0] if len(nz) == 1 else None

    def _slot_mode(self, v_mono, slot: int, kn: int, w_mono) -> dict:
        """The stored terms of Y^g(v_mono in slot)_{kn/k} on the basis state
        w_mono, computed once: the generator formula is the one field
        application ``_apply_field`` of the chart-corrected slot at its root
        point w_k^slot, at the one grade wt w + k wt v - kn - k it reaches."""
        key = (v_mono, slot, kn, w_mono)
        hit = self._slot_modes.get(key)
        if hit is None:
            target = self.module.weight(w_mono) + self.k * self.tensor.base.weight(v_mono) - kn - self.k
            if target > self.module.cutoff:
                raise CutoffOverflow(target, self.module.cutoff)
            w = GradedVector(self.module, {w_mono: 1})
            x = _apply_field(self.slot_corrected(v_mono, slot), self._points[slot], w, [target] if target >= 0 else [])
            hit = self._slot_modes[key] = x.terms
        return hit

    def _add_slot_modes(self, out: dict, v_mono, slot: int, kn: int, w: GradedVector, coef=1) -> dict:
        # out += coef Y^g(v_mono in slot)_{kn/k} w, monomial by monomial of w
        for wm, wc in w.terms.items():
            c = coef * wc
            for mono, x in self._slot_mode(v_mono, slot, kn, wm).items():
                _acc(out, mono, x * c)
        return out

    def slot_mode_apply(self, v_mono, slot: int, n, w: GradedVector) -> GradedVector:
        """Y^g of a vector occupying one tensor slot: the generator formula
        carried to the root point w_k^slot t, so only mode actions of the
        base algebra are needed."""
        kn = self.kn_index(n)
        return GradedVector(self.module, self._add_slot_modes({}, tuple(v_mono), slot, kn, w))

    def mode_apply(self, u: GradedVector, n, w: GradedVector) -> GradedVector:
        """Y^g(u)_n w; single-slot tensor monomials go through the generator
        formula, genuinely multi-slot ones through the k-point oracle."""
        kn = self.kn_index(n)
        out = {}
        for mono, coef in u.terms.items():
            single = self._single_slot(mono)
            if single is not None:
                slot, vm = single
                self._add_slot_modes(out, vm, slot, kn, w, coef)
                continue
            # the oracle: weight alpha maps grade b into grade k alpha + b - kn - k
            shift = self.k * self.tensor.weight(mono) - kn - self.k
            for wm, wc in w.terms.items():
                target = self.module.weight(wm) + shift
                if target < 0:
                    continue
                if target > self.module.cutoff:
                    raise CutoffOverflow(target, self.module.cutoff)
                c = coef * wc
                for out_mono in self.module.basis(target):
                    val = self._oracle_value(mono, wm, out_mono)
                    if val:
                        _acc(out, out_mono, val * c)
        return GradedVector(self.module, out)


# ---------------------------------------------------------------------------
# axiom checks


def factorization_check(tw: TwistedModule, u_slots, v_slots, w, wp, s_z, s_xi, shell_cutoff: int):
    """Graded-intermediate-sum factorization of the twisted two-point
    composition, against the single 2k-point oracle value.  Shell g is the
    xi-side oracle on A_g, the grade-g part of A = sum_m <Y_z w, m'> m: with
    at most one non-vacuum z-slot A is that field applied to w, otherwise
    each coefficient is a z-side oracle value.

    z = s_z^k and xi = s_xi^k must be exact k-th powers with |z| < |xi| so
    every root point is an exact cyclotomic scalar.  Returns
    (relative_error_float, partial_sum, oracle_value, shells)."""
    k = tw.k
    zpts = _root_points(k, s_z)
    xipts = _root_points(k, s_xi)
    cu = [_chart_corrected(k, v, p) for v, p in zip(u_slots, zpts)]
    cv = [_chart_corrected(k, v, p) for v, p in zip(v_slots, xipts)]
    both = heisenberg_correlator(cu + cv, w, wp)
    oracle = both.evaluate(dict(enumerate(zpts + xipts)))

    # one field on w has exact graded coefficients; a product of two would be
    # cut at the shell cutoff, so then A's coefficients come from the oracle
    nontrivial = [(v, p) for v, p in zip(cu, zpts) if list(v.terms) != [()]]
    if len(nontrivial) <= 1:
        state = w
        for v, p in nontrivial:
            state = _apply_field(v, p, state, range(shell_cutoff + 1))
    else:
        state = GradedVector(tw.module, {
            mono: heisenberg_correlator(cu, w, GradedVector.state(tw.dual, mono)).evaluate(dict(enumerate(zpts)))
            for g in range(shell_cutoff + 1)
            for mono in tw.module.basis(g)
        })
    comps = state.weight_components()
    shells = []
    total = S0
    for g in range(shell_cutoff + 1):
        part = comps.get(g)
        shell = S0 if part is None else heisenberg_correlator(cv, part, wp).evaluate(dict(enumerate(xipts)))
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
    xi = stored(s_xi) ** k
    kv = "x1"
    wt_u = u.homogeneous_weight()
    wt_v1 = v_slots[0].homogeneous_weight()
    depth = wt_u + wt_v1 + w.max_weight() + 2  # deepest possible pole in kappa
    rel = FracLaurent.monomial(kv, 1, reciprocal(xi))
    z1 = binomial_expand(s_xi, rel, Fraction(1, k), order + depth)
    xipts = _root_points(k, s_xi)
    cu = _chart_corrected(k, u, z1)
    cv = [_chart_corrected(k, v, p) for v, p in zip(v_slots, xipts)]
    expr = heisenberg_correlator([cu] + cv, w, wp)
    pts = {0: z1}
    for i, p in enumerate(xipts):
        pts[i + 1] = FracLaurent(kv, 1, {Fraction(0): p})
    lhs = expr.substitute(pts, kv, trunc=order)

    rhs = FracLaurent.zero(kv, 1, trunc=order)
    for m in range(-order - 1, wt_u + wt_v1):
        inner = mode_action(u, m, v_slots[0])
        if inner.is_zero():
            continue
        composed = tensor_vector(tw.tensor, [inner] + list(v_slots[1:]))
        total = tw._matrix_series(composed, w, wp).evaluate(s_xi)
        if total:
            rhs = rhs + FracLaurent.monomial(kv, -m - 1, total)
    ok = (lhs - rhs).is_zero()
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
        acc = acc.scale(Fraction(1, k))
        if not acc.is_zero():
            comps[j] = acc
    return comps


def check_grading(tw: TwistedModule, vectors, states, n_values) -> bool:
    """[L0^g, Y^g(u)_n] = Y^g(L0 u)_n - (n+1) Y^g(u)_n, exactly.

    Sampled over the given tensor vectors, module states, and mode indices;
    homogeneity of images (the weight-shift rule) is what the bracket
    amounts to, and is what gets verified literally here."""
    scaled = [(w, _scale_by_twisted_weight(tw, w)) for w in states]
    for u in vectors:
        alpha = u.homogeneous_weight()
        for w, l0_w in scaled:
            for n in n_values:
                n = Fraction(n)
                try:
                    img = tw.mode_apply(u, n, w)
                except CutoffOverflow:
                    continue
                lhs = _scale_by_twisted_weight(tw, img) - tw.mode_apply(u, n, l0_w)
                rhs = img.scale(Fraction(alpha) - n - 1)
                if lhs != rhs:
                    return False
    return True


def _scale_by_twisted_weight(tw, vec):
    # each monomial times its twisted weight wt/k
    return GradedVector(vec.space, {m: c * Fraction(vec.space.weight(m), tw.k) for m, c in vec.terms.items()})


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
                    if s_gu.terms.get(e, 0) != phase * s_u.terms.get(e, 0):
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
    hs = [(Fraction(h), tw.kn_index(h)) for h in h_values]
    for j, uj in eigencomponents(u, k).items():
        instances = [
            (Fraction(j, k) + m, n, h)
            for m in m_values
            for n in n_values
            for h, kh in hs
            if top - (j + k * (m + n) + kh) == wt_wp
        ]
        for diff in jacobi_sweep(tw.mode_apply, uj, v, w, instances, k):
            val = dual_pairing(diff, wp)
            if not val.is_zero():
                ok = False
                worst = max(worst, abs(val.to_complex()))
    return ok, worst

import random
from fractions import Fraction

import pytest

from support import fock, heis, pair_field, rat, st, vac
from voablocks import linalg
from voablocks.blocks import (
    INF,
    RationalExpr,
    _apply_field,
    _tail_estimate,
    heisenberg_correlator,
    permutation_check,
    propagate_eval,
    propagate_expand,
    reconstruct_global,
    residue_criterion,
)
from voablocks.coordchange import CoordChange, apply_coord_change
from voablocks.scalars import Scalar
from voablocks.series import FracLaurent
from voablocks.voa import CutoffOverflow, GradedVector, contragredient_mode, dual_of, dual_pairing, mode_action


H = heis(44)
W = fock(H, 0)
WD = dual_of(W)
A = st(H, (1,))
VW, VP = vac(W), vac(WD)


def test_one_point_function_vanishes():
    assert heisenberg_correlator([A], VW, VP).is_zero()


def test_two_point_function():
    expr = heisenberg_correlator([A, A], VW, VP)
    z1, z2 = rat(1), rat(3)
    assert expr.evaluate({0: z1, 1: z2}) == (z1 - z2) ** -2


def test_four_point_pairings():
    expr = heisenberg_correlator([A] * 4, VW, VP)
    pts = {i: rat(v) for i, v in enumerate((1, 2, 5, 7))}
    expect = Scalar.integer(0)
    for (i, j), (k, l) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        expect = expect + ((pts[i] - pts[j]) ** -2) * ((pts[k] - pts[l]) ** -2)
    assert expr.evaluate(pts) == expect


def test_momentum_one_point():
    Wl = fock(H, rat(2, 3))
    expr = heisenberg_correlator([A], vac(Wl), vac(dual_of(Wl)))
    assert expr.evaluate({0: rat(2)}) == rat(1, 3)


def test_empty_insertion_is_pairing():
    w = st(W, (2, 1))
    wp = GradedVector(WD, {(2, 1): rat(5), (1,): rat(3)})
    res = propagate_eval([], [], w, wp, cutoff=10)
    assert res.value == rat(5)
    assert res.exact


def test_vacuum_insertion_invariance_exact():
    vcc = vac(H)
    pts = {0: rat(1), 1: rat(2), 2: rat(3)}
    with_vac = heisenberg_correlator([A, vcc, A], VW, VP).evaluate(pts)
    without = heisenberg_correlator([A, A], VW, VP).evaluate({0: rat(1), 1: rat(3)})
    assert with_vac == without


def test_single_insertion_matches_modes_exactly():
    w = st(W, (1,))
    wp = st(WD, (2, 1))
    for um in ((2,), (1, 1), (3, 1)):
        u = st(H, um)
        z = rat(3, 2)
        oracle = heisenberg_correlator([u], w, wp).evaluate({0: z})
        res = propagate_eval([u], [z], w, wp, cutoff=40)
        assert res.exact
        assert (res.value - oracle).is_zero()


def test_truncated_sums_converge_to_oracle():
    # oracle equivalence at moduli ratio <= 1/2, grade cutoff 40
    rng = random.Random(9)
    cases = [
        ([A, A], VW, VP),
        ([st(H, (1, 1)), st(H, (1, 1))], VW, VP),
        ([st(H, (2,)), st(H, (2, 2))], VW, VP),
        ([A, st(H, (2, 1))], st(W, (1,)), st(WD, (1, 1))),
        ([A, A, A, A], VW, VP),
    ]
    for vs, w, wp in cases:
        total = sum(v.homogeneous_weight() for v in vs) + w.max_weight() + wp.max_weight()
        assert total <= 8
        zs = [rat(1, 2**(len(vs) - i)) for i in range(len(vs))]
        oracle = heisenberg_correlator(vs, w, wp).evaluate(dict(enumerate(zs)))
        res = propagate_eval(vs, zs, w, wp, cutoff=40)
        err = abs(res.value.to_complex() - oracle.to_complex())
        scale = abs(oracle.to_complex())
        assert err <= 1e-8 * max(scale, 1e-30) or (scale == 0 and err == 0)


def test_both_representations_agree_at_random_points():
    rng = random.Random(77)
    vs = [A, st(H, (2,))]
    w, wp = st(W, (1,)), st(WD, (2,))
    expr = heisenberg_correlator(vs, w, wp)
    for _ in range(20):
        z1 = rat(rng.randint(1, 4), rng.randint(9, 16))
        z2 = rat(rng.randint(5, 9), rng.randint(1, 2))
        res = propagate_eval(vs, [z1, z2], w, wp, cutoff=40)
        oracle = expr.evaluate({0: z1, 1: z2})
        assert abs(res.value.to_complex() - oracle.to_complex()) <= 1e-10 * max(
            1.0, abs(oracle.to_complex())
        )


def test_radial_ordering_enforced():
    with pytest.raises(ValueError):
        propagate_eval([A, A], [rat(2), rat(1)], VW, VP, cutoff=10)
    with pytest.raises(ValueError):
        propagate_eval([A], [rat(0)], VW, VP, cutoff=10)
    with pytest.raises(ValueError, match="modulus of the point"):
        propagate_eval([A], [Scalar.root_of_unity(3)], VW, VP, cutoff=10)


def test_permutation_check_refuses_a_point_without_a_rational_modulus():
    with pytest.raises(ValueError, match="modulus of the point"):
        permutation_check([A, A], [Scalar.root_of_unity(3), rat(2)], VW, VP)


def test_permutation_check():
    assert permutation_check([A, A], [rat(2), rat(1)], VW, VP)
    assert permutation_check(
        [A, st(H, (2,)), A], [rat(2), rat(1), rat(7, 2)], VW, VP
    )
    assert permutation_check([A, A], [rat(1), rat(2)], VW, VP, cutoff=40, tol=1e-8)
    # 3-insertion series path at cutoff 30 with smaller moduli ratios
    assert permutation_check(
        [A, st(H, (2,)), A],
        [rat(1, 9), rat(1, 3), rat(1)],
        st(W, (1,)),
        st(WD, (2,)),
        cutoff=30,
        tol=1e-8,
    )


def test_expansions_agree_coefficientwise():
    def complete(key, wts, w0, cap):
        g = w0
        for i in range(len(key)):
            g += wts[i] + key[i]
            if not (0 <= g <= cap):
                return False
        return True

    cases = [
        ([A] * 4, [1] * 4, VW, VP, 12),
        ([st(H, (1, 1)), st(H, (2,))], [2, 2], VW, st(WD, (1,)), 10),
    ]
    for vs, wts, w, wp, cap in cases:
        cham = heisenberg_correlator(vs, w, wp).expand_chamber(
            list(range(len(vs))), max_m=cap + 6
        )
        prop = propagate_expand(vs, w, wp, shell_cap=cap)
        npairs = 0
        for key, c in prop.items():
            if complete(key, wts, w.max_weight(), cap):
                assert key in cham and (cham[key] - c).is_zero()
                npairs += 1
        for key, c in cham.items():
            if complete(key, wts, w.max_weight(), cap) and all(abs(x) < 8 for x in key):
                assert key in prop or c.is_zero()
        assert npairs > 5


# The last insertion of propagate_eval and propagate_expand computes only the
# modes that land at a grade of w'.  These references rebuild the full-grade
# algorithm (every mode up to the cutoff, then the pairing with w') and must
# agree exactly with the restricted one.

WM = fock(H, rat(2, 3))
WMD = dual_of(WM)
W_IN = st(WM, (1,)) + vac(WM).scale(3)  # a_{-1}|0> + 3|0>
WP_MIXED = GradedVector(  # grades 0, 2, 3 and 4
    WMD,
    {(): rat(1, 2), (1, 1): rat(2), (2, 1): rat(-3), (3,): rat(5, 7), (2, 2): rat(1), (4,): rat(-1, 4)},
)
V_MIXED = vac(H) + st(H, (1,)) + st(H, (2,), rat(-1, 3)) + st(H, (1, 1), rat(1, 2))
MIXED_CASES = [
    ([V_MIXED, A], [rat(1, 3), rat(1)], 9),
    ([A, V_MIXED, V_MIXED], [rat(-1, 5), rat(1, 2), rat(2)], 7),
]


def _full_grade_eval(vs, zs, w, wp, cutoff):
    everything = range(cutoff + 1)
    state = w
    for v, z in zip(vs[:-1], zs[:-1]):
        state = _apply_field(v, z, state, everything)
    shells = [
        (g, dual_pairing(_apply_field(vs[-1], zs[-1], part, everything), wp))
        for g, part in sorted(state.weight_components().items())
    ]
    value = Scalar._coerce(sum(s for _, s in shells))
    return value, shells, _tail_estimate(shells), len(vs) <= 1


def _full_grade_expand(vs, w, wp, cap):
    module = w.space
    states = {m: {(0,) * len(vs): c} for m, c in w.terms.items()}
    for i, v in enumerate(vs):
        nxt = {}
        for vm, vc in v.terms.items():
            for sm, poly in states.items():
                top = H.weight(vm) + module.weight(sm) - 1
                for n in range(top - cap, top + 1):
                    for m, c in H.mode_mono(vm, n, sm, module).items():
                        tgt = nxt.setdefault(m, {})
                        for key, pc in poly.items():
                            k2 = key[:i] + (-n - 1,) + key[i + 1 :]
                            tgt[k2] = tgt.get(k2, 0) + pc * c * vc
        states = nxt
    out = {}
    for m, poly in states.items():
        if m in wp.terms:
            for key, c in poly.items():
                out[key] = out.get(key, 0) + c * wp.terms[m]
    return {k: Scalar._coerce(c) for k, c in out.items() if c != 0}


@pytest.mark.parametrize("vs,zs,cutoff", MIXED_CASES, ids=["2-insertions", "3-insertions"])
def test_last_insertion_restriction_matches_the_full_grade_sum(vs, zs, cutoff):
    res = propagate_eval(vs, zs, W_IN, WP_MIXED, cutoff)
    value, shells, tail, exact = _full_grade_eval(vs, zs, W_IN, WP_MIXED, cutoff)
    assert not value.is_zero() and sum(1 for _, s in shells if not s.is_zero()) > 3
    assert res.value == value
    assert res.shells == shells
    assert res.tail_estimate == tail
    assert res.exact == exact
    for cap in (cutoff, 3):
        expansion = propagate_expand(vs, W_IN, WP_MIXED, cap)
        assert expansion and expansion == _full_grade_expand(vs, W_IN, WP_MIXED, cap)
    with pytest.raises(CutoffOverflow):
        propagate_eval(vs, zs, W_IN, WP_MIXED, 3)


# ---------------------------------------------------------------------------
# strong residue criterion


def _trunc_series(terms, T=8):
    return FracLaurent("z", 1, terms, trunc=T)


def test_residue_fixtures():
    one = _trunc_series({0: 1})
    onez = _trunc_series({0: 1, 1: 1})
    assert residue_criterion([0, INF], [[one], [one]], 2, 4)
    assert not residue_criterion([0, INF], [[one], [onez]], 2, 4)
    s0 = _trunc_series({-1: 1})
    sinf = _trunc_series({1: 1})
    assert residue_criterion([0, INF], [[s0], [sinf]], 2, 4)


def test_reconstruction_and_reexpansion():
    s0 = _trunc_series({-1: 1})
    sinf = _trunc_series({1: 1})
    sec = reconstruct_global([0, INF], [[s0], [sinf]], 2)
    assert sec is not None
    assert sec.evaluate(rat(2))[0] == rat(1, 2)
    assert sec.expand_at(0, 8)[0] == s0.truncate(8)
    assert sec.expand_at(1, 8)[0] == sinf.truncate(8)


def test_reconstruction_interior_pole():
    # zeta/(zeta-1) with the pole declared as a third marked point
    s_at0 = _trunc_series({m: -1 for m in range(1, 8)})
    s_at1 = _trunc_series({0: 1, -1: 1})
    s_atinf = _trunc_series({m: 1 for m in range(0, 8)})
    data = [[s_at0], [s_at1], [s_atinf]]
    assert residue_criterion([0, 1, INF], data, 2, 4)
    sec = reconstruct_global([0, 1, INF], data, 2)
    assert sec is not None
    assert sec.evaluate(rat(3))[0] == rat(3, 2)
    for j in range(3):
        assert sec.expand_at(j, 8)[0] == data[j][0].truncate(8)


def test_reconstruction_failure_case():
    one = _trunc_series({0: 1})
    onez = _trunc_series({0: 1, 1: 1})
    assert reconstruct_global([0, INF], [[one], [onez]], 2) is None


def test_reconstruction_refuses_underdetermined_data():
    # no coefficient is known, so a1/zeta + b0 + b1 zeta all fit: there is
    # no unique section to return
    blank = FracLaurent("z", 1, {}, trunc=-1)
    with pytest.raises(ValueError, match="more than one global section"):
        reconstruct_global([0, INF], [[blank], [blank]], 2)
    # with pole bound 0 the data give no equation at all for the constant
    # section's one coefficient; a system without equations leaves it free
    nothing = FracLaurent("z", 1, {}, trunc=0)
    with pytest.raises(ValueError, match="more than one global section"):
        reconstruct_global([0, INF], [[nothing], [nothing]], 0)
    assert linalg.solve([], [], 2) == ([0, 0], False)
    assert linalg.solve([], [], 0) == ([], True)


def test_residue_data_must_match_the_marked_points():
    one = _trunc_series({0: 1})
    for points, data in (([], []), ([0, INF], [[one], [one, one]]), ([0, INF], [[one, one], [one]]), ([0, INF], [[one]])):
        with pytest.raises(ValueError):
            residue_criterion(points, data, 2, 4)
        with pytest.raises(ValueError):
            reconstruct_global(points, data, 2)


def test_insufficient_order_rejected():
    short = FracLaurent("z", 1, {0: 1}, trunc=2)
    with pytest.raises(ValueError):
        residue_criterion([0, INF], [[short], [short]], 2, 4)


def test_rank_two_components_independent():
    one = _trunc_series({0: 1})
    zero = _trunc_series({})
    onez = _trunc_series({0: 1, 1: 1})
    assert residue_criterion([0, INF], [[one, zero], [one, zero]], 2, 4)
    assert not residue_criterion([0, INF], [[one, one], [one, onez]], 2, 4)


# ---------------------------------------------------------------------------
# the defining vanishing property at genus 0, made finite


def _flip_twist(u, K):
    # carries the zeta-chart trivialization to the 1/zeta chart at infinity
    c0 = FracLaurent.monomial("z", 2, -1)
    c1 = FracLaurent.monomial("z", 1, -1)
    return apply_coord_change(CoordChange(c0, [c1]), u)


def _block_section_data(u, v, w, wp, z0, p_bound, K):
    s0 = {}
    for n in range(-p_bound, K):
        x = mode_action(u, -n - 1, w)
        if not x.is_zero():
            val = pair_field(H, v, z0, x, wp)
            if not val.is_zero():
                s0[Fraction(n)] = val
    sz0 = {}
    for n in range(-p_bound, K):
        uv = mode_action(u, -n - 1, v)
        if not uv.is_zero():
            val = pair_field(H, uv, z0, w, wp)
            if not val.is_zero():
                sz0[Fraction(n)] = val
    sinf = FracLaurent.zero("z", 1, trunc=K)
    ut = _flip_twist(u, K)
    for b, coef in ut.terms.items():
        bvec = st(H, b)
        for m in range(-p_bound - 10, K + 10):
            img = contragredient_mode(bvec, m, wp)
            if img.is_zero():
                continue
            val = pair_field(H, v, z0, w, img)
            if val.is_zero():
                continue
            sinf = sinf + coef.shift(-m - 1).scale(val)
    return (
        FracLaurent("z", 1, s0, trunc=K),
        FracLaurent("z", 1, sz0, trunc=K),
        sinf.truncate(K),
    )


def test_infinity_twist_matches_oracle_reexpansion():
    z0 = rat(1)
    u, v = st(H, (2,)), A
    w, wp = st(W, (1,)), st(WD, (2,))
    _, _, sinf = _block_section_data(u, v, w, wp, z0, 8, 8)
    expr = heisenberg_correlator([u, v], w, wp)
    sub = expr.substitute(
        {0: FracLaurent.monomial("z", -1), 1: FracLaurent("z", 1, {0: z0})}, "z", trunc=8
    )
    assert sub == sinf


def test_truncated_point_caps_the_substituted_truncation():
    # (z0 - z1)^-2 at z0 = z + z^2 + O(z^3), z1 = 2: nothing is known from
    # z^3 on, however far the expansion is asked to reach
    expr = heisenberg_correlator([A, A], VW, VP)
    const = FracLaurent("z", 1, {0: 2})
    got = expr.substitute({0: FracLaurent("z", 1, {1: 1, 2: 1}, trunc=3), 1: const}, "z", trunc=10)
    exact = expr.substitute({0: FracLaurent("z", 1, {1: 1, 2: 1}), 1: const}, "z", trunc=10)
    assert got.trunc == 3
    assert got == exact.truncate(3)


def test_truncated_zero_coefficient_keeps_its_truncation():
    # O(z^3) is no exact zero: it survives construction, and substituting
    # it gives O(z^3) under a requested truncation above it
    term = RationalExpr.term(FracLaurent("z", 1, {}, trunc=3))
    assert not term.is_zero()
    got = term.substitute({}, "z", trunc=5)
    assert got.is_zero() and got.trunc == 3
    got = RationalExpr.term(FracLaurent("z", 1, {}, trunc=3), zpows={0: -1}).substitute(
        {0: FracLaurent.monomial("z", 1)}, "z", trunc=5
    )
    assert got.is_zero() and got.trunc == 2
    assert RationalExpr.term(FracLaurent("z", 1, {})).is_zero()


def test_substitute_refuses_coincident_points():
    expr = heisenberg_correlator([A, A], VW, VP)
    const = FracLaurent("z", 1, {0: 2})
    with pytest.raises(ZeroDivisionError):
        expr.substitute({0: const, 1: const}, "z", trunc=4)


def test_block_data_passes_residue_criterion():
    rng = random.Random(41)
    z0 = rat(1)
    p_bound = K = 8
    monos = [m for g in range(0, 4) for m in H.basis(g)]
    w_monos = [m for g in range(0, 4) for m in W.basis(g)]
    combos = []
    for um in monos:
        for _ in range(3):
            combos.append(
                (um, rng.choice(monos), rng.choice(w_monos), rng.choice(w_monos))
            )
    for um, vm, wm, pm in combos:
        u, v = st(H, um), st(H, vm)
        w, wp = st(W, wm), st(WD, pm)
        s0, sz0, sinf = _block_section_data(u, v, w, wp, z0, p_bound, K)
        assert residue_criterion([0, 1, INF], [[s0], [sz0], [sinf]], p_bound, K), (
            um,
            vm,
            wm,
            pm,
        )


def test_dual_pairing_vacuum_and_orthogonality():
    # the two-point block on (0, infinity) is the dual pairing: basis against dual basis
    w = st(W, (2, 1))
    wp = GradedVector(WD, {(2, 1): rat(5), (1,): rat(3)})
    assert dual_pairing(w, wp) == rat(5)
    assert dual_pairing(vac(W), vac(WD)) == Scalar.integer(1)
    assert dual_pairing(st(W, (1,)), st(WD, (2,))).is_zero()


def test_duplicate_marked_points_rejected():
    one = _trunc_series({0: 1})
    with pytest.raises(ValueError):
        residue_criterion([0, 0], [[one], [one]], 2, 4)
    with pytest.raises(ValueError):
        residue_criterion([INF, INF], [[one], [one]], 2, 4)


def test_vacuum_insertion_drops_on_series_path():
    vcc = vac(H)
    zs = [rat(1, 2), rat(1), rat(2)]
    with_vac = propagate_eval([A, vcc, A], zs, VW, VP, cutoff=30)
    without = propagate_eval([A, A], [rat(1, 2), rat(2)], VW, VP, cutoff=30)
    assert (with_vac.value - without.value).is_zero()

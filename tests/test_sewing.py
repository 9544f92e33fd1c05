import random
from fractions import Fraction

import pytest

from support import TrivialModule, fock, heis, pair_field, rat, st, vac
from voablocks import linalg, sewing
from voablocks.blocks import RationalExpr, heisenberg_correlator, propagate_eval
from voablocks.scalars import Scalar
from voablocks.series import FracLaurent
from voablocks.sewing import (
    converge_diag,
    sew,
    sew_propagate_commute_check,
)
from voablocks.voa import GradedVector, dual_of, dual_pairing, mode_action


H = heis(30)
W = fock(H, 0)
WD = dual_of(W)
A = st(H, (1,))


def _tau_omega_block(u, w0, w2p):
    # Example-lb9 shape with the pairing block: psi = tau (x) omega, sewing
    # along the first marked point; the Casimir legs are (m, m-dual)
    def block(m, md):
        outer = dual_pairing(m, w2p)
        if outer.is_zero():
            return Scalar.integer(0)
        return outer * pair_field(H, u, Scalar.integer(1), w0, md)

    return block


def test_sewing_matches_mode_weights():
    # Eq.-29-shaped coefficients: q^n picks <P_n Y(u,1) w, w2'>
    u = st(H, (2,))
    w0 = st(W, (1,))
    w2p = GradedVector(
        WD, {(): 1, (1,): rat(1, 2), (2,): 1, (1, 1): 1, (2, 1): 1, (3,): rat(2)}
    )
    series = sew(_tau_omega_block(u, w0, w2p), W, 6)
    for g in range(7):
        n = u.homogeneous_weight() + w0.homogeneous_weight() - g - 1
        target = GradedVector(WD, {m: c for m, c in w2p.terms.items() if WD.weight(m) == g})
        truth = dual_pairing(mode_action(u, n, w0), target)
        assert (series.coeff(g) - truth).is_zero(), g


def test_homogeneous_state_gives_single_monomial():
    # the sewn series of the pure pairing block is q^{wt} times the pairing
    u = vac(H)
    w0 = st(W, (2, 1))
    w2p = GradedVector(WD, {m: Scalar.integer(1) for g in range(5) for m in WD.basis(g)})
    series = sew(_tau_omega_block(u, w0, w2p), W, 6)
    assert set(series.terms) == {Fraction(3)}


def test_trivial_module_sewing_is_constant():
    tm = TrivialModule()
    series = sew(lambda m, md: rat(5, 7), tm, 8)
    assert series.terms == {Fraction(0): rat(5, 7)}


def test_q_exponents_are_grades():
    u = st(H, (2,))
    w0 = st(W, (1,))
    w2p = GradedVector(WD, {m: Scalar.integer(1) for g in range(7) for m in WD.basis(g)})
    series = sew(_tau_omega_block(u, w0, w2p), W, 6)
    assert all(e.denominator == 1 and e >= 0 for e in series.terms)


def test_casimir_basis_change_invariance():
    # an invertible grade-preserving change with its contragredient change
    # leaves every sewn output untouched
    rng = random.Random(6)
    u = st(H, (2,))
    w0 = st(W, (1,))
    w2p = GradedVector(WD, {m: rat(rng.randint(1, 3)) for g in range(5) for m in WD.basis(g)})
    block = _tau_omega_block(u, w0, w2p)
    reference = sew(block, W, 4)
    for g in range(5):
        monos = W.basis(g)
        d = len(monos)
        while True:
            P = [[rat(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
            Pinv = linalg.invert(P)
            if Pinv is not None:
                break
        total = Scalar.integer(0)
        for a in range(d):
            m_new = GradedVector(W, {monos[i]: P[i][a] for i in range(d)})
            md_new = GradedVector(WD, {monos[i]: Pinv[a][i] for i in range(d)})
            total = total + block(m_new, md_new)
        assert (total - reference.coeff(g)).is_zero(), g


@pytest.mark.parametrize(
    "na,nb",
    [(0, 0), (1, 0), (0, 1), (1, 1)],
)
def test_commute_check_exact(na, nb):
    vs_a = [A] * na
    za = [rat(1, 3)] * na
    vs_b = [st(H, (2,))] * nb
    zb = [rat(3, 2)] * nb
    ok, disc, lhs, rhs = sew_propagate_commute_check(
        vs_a, za, vs_b, zb, st(W, (1,)), st(WD, (1,)), q_cutoff=8, grade_cutoff=24
    )
    assert ok and disc == 0.0


def test_commute_check_vacuum_reduces():
    ok0, _, lhs0, _ = sew_propagate_commute_check(
        [], [], [], [], st(W, (1,)), st(WD, (1,)), 8, 24
    )
    okv, _, lhsv, _ = sew_propagate_commute_check(
        [vac(H)], [rat(1, 3)], [], [], st(W, (1,)), st(WD, (1,)), 8, 24
    )
    assert ok0 and okv and lhs0 == lhsv


def test_commute_check_descendants():
    ok, disc, _, _ = sew_propagate_commute_check(
        [st(H, (1, 1))], [rat(1, 4)], [st(H, (2,))], [rat(2)],
        st(W, (1, 1)), st(WD, (2,)), q_cutoff=8, grade_cutoff=24
    )
    assert ok and disc == 0.0


def test_commute_series_sums_to_oracle_at_q_one():
    # with q = 1 the sewn sphere is the standard one: the series summed far
    # enough approaches the plain correlator at the combined points
    vs_a, za = [A], [rat(1, 4)]
    vs_b, zb = [A], [rat(4)]
    w, wp = st(W, (1,)), st(WD, (1,))
    ok, _, lhs, _ = sew_propagate_commute_check(vs_a, za, vs_b, zb, w, wp, 18, 24)
    assert ok
    combined = heisenberg_correlator(vs_a + vs_b, w, wp).evaluate({0: za[0], 1: zb[0]})
    total = Scalar.integer(0)
    for _, c in lhs.sorted_terms():
        total = total + c
    assert abs(total.to_complex() - combined.to_complex()) < 1e-8
    # and the partial sums match the radially ordered propagation directly
    res = propagate_eval(vs_a + vs_b, za + zb, w, wp, cutoff=30)
    assert abs(res.value.to_complex() - combined.to_complex()) < 1e-8


def _casimir_lhs(vs_a, za, vs_b, zb, w, wp, q_cutoff, grade_cutoff):
    # the propagated-then-sewn side by its definition: a propagation on each
    # sphere for every Casimir pair (m, m'), summed shell by shell
    def block(m, md):
        a_val = propagate_eval(vs_a, za, w, md, grade_cutoff).value
        return a_val * propagate_eval(vs_b, zb, m, wp, grade_cutoff).value

    return sew(block, w.space, q_cutoff)


@pytest.mark.parametrize("case", ["mixed-grades", "vacuum-insertion", "two-on-A", "two-on-B"])
def test_commute_lhs_is_the_casimir_contraction(case, monkeypatch):
    Wm = fock(H, rat(2, 3))
    Wmd = dual_of(Wm)
    w, wp = st(Wm, (1,)), st(Wmd, (1,))
    vs_a, za, vs_b, zb = [A], [rat(1, 3)], [A], [rat(3, 2)]
    if case == "mixed-grades":
        w = GradedVector(Wm, {(): 3, (1,): 1, (2, 1): rat(-1, 2)})
        wp = GradedVector(Wmd, {(): 1, (1, 1): 2, (3,): rat(1, 3)})
    elif case == "vacuum-insertion":
        vs_a = [vac(H)]
    elif case == "two-on-A":
        vs_a, za = [A, st(H, (2,))], [rat(1, 5), rat(1, 2)]
    else:
        vs_b, zb = [A, st(H, (1, 1))], [rat(3, 2), rat(3)]
    q_cutoff, grade_cutoff = 6, 16
    expected = _casimir_lhs(vs_a, za, vs_b, zb, w, wp, q_cutoff, grade_cutoff)
    calls = []

    def counted(*args):
        calls.append(args)
        return propagate_eval(*args)

    monkeypatch.setattr(sewing, "propagate_eval", counted)
    _, _, lhs, _ = sew_propagate_commute_check(vs_a, za, vs_b, zb, w, wp, q_cutoff, grade_cutoff)
    assert lhs.terms and lhs.terms == expected.terms and lhs.trunc == expected.trunc
    # one propagation per q-grade, none per Casimir basis state
    assert len(calls) <= q_cutoff + 1


def test_two_insertions_on_a_sphere_converge_in_the_grade_cutoff(monkeypatch):
    # the inner of two insertions on sphere A is cut at grade_cutoff, so the
    # propagated-then-sewn side is a truncated sum: its mismatch with the
    # exact sewn oracle falls with the cutoff while the oracle side stays put
    calls = []
    substitute = RationalExpr.substitute

    def recorded(self, points, var, trunc=None):
        out = substitute(self, points, var, trunc)
        calls.append((trunc, out.trunc))
        return out

    monkeypatch.setattr(RationalExpr, "substitute", recorded)
    w = st(W, (1,))
    (ok20, disc20, _, rhs20), (ok30, disc30, _, rhs30) = [
        sew_propagate_commute_check(
            [A, A], [rat(1, 5), rat(1, 2)], [A], [rat(2)], w, vac(WD), 8, cutoff
        )
        for cutoff in (20, 30)
    ]
    assert not ok20 and not ok30
    assert 0 < 100 * disc30 <= disc20
    assert rhs20.terms == rhs30.terms and rhs20.trunc == rhs30.trunc
    # the q-expansion of the oracle side asks once per weight of w for the
    # truncation it needs, and gets it
    assert len(calls) == 2 * len(w.weight_components())
    assert all(trunc is not None and got == trunc for trunc, got in calls)


def test_non_homogeneous_insertion_is_refused_before_any_propagation(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return propagate_eval(*args)

    monkeypatch.setattr(sewing, "propagate_eval", counted)
    with pytest.raises(ValueError, match="homogeneous"):
        sew_propagate_commute_check([A + vac(H)], [rat(1, 3)], [A], [rat(2)], st(W, (1,)), vac(WD), 8, 12)
    assert calls == []


@pytest.mark.parametrize("vs_a, za, vs_b, zb", [
    ([A], [rat(1, 3)], [A], [rat(3, 2)]),
    ([st(H, (2,))], [rat(1, 4)], [A], [rat(2)]),
    ([A, st(H, (2,))], [rat(1, 5), rat(1, 2)], [A], [rat(2)]),
])
def test_sewn_expansion_reaches_exactly_the_requested_truncation(vs_a, za, vs_b, zb):
    # criterion-6 correlators, and two insertions on A, at the sewing points
    # (q z_A, constant z_B): the expansion is known below q^T, and widening
    # it changes nothing there
    points = {i: FracLaurent.monomial("q", 1, z) for i, z in enumerate(za)}
    points.update({len(za) + j: FracLaurent("q", 1, {0: z}) for j, z in enumerate(zb)})
    expr = heisenberg_correlator(vs_a + vs_b, st(W, (1,)), st(WD, (1,)))
    for T in (-2, 0, 3, 9):
        got = expr.substitute(points, "q", trunc=T)
        assert got.trunc == T
        assert got == expr.substitute(points, "q", trunc=T + 20).truncate(T)


def test_converge_diag_geometric():
    geo = FracLaurent("q", 1, {g: rat(1, 3**g) for g in range(25)}, trunc=25)
    rep = converge_diag(geo, rat(1, 2))
    assert abs(rep["radius_estimate"] - 3.0) / 3.0 < 0.05
    assert rep["ratios"][-1] == pytest.approx(1 / 6, rel=1e-9)


def test_converge_diag_zero_tail():
    poly = FracLaurent("q", 1, {0: 1, 1: 1}, trunc=30)
    assert converge_diag(poly, rat(1, 2))["radius_estimate"] == float("inf")


def test_converge_diag_on_sewn_series():
    # the Example-lb9 series at |q0| below the disc radius: ratios settle
    u = st(H, (2,))
    w0 = st(W, (1,))
    # ratios eventually drop below 0.6 at |q0| = 1/2 inside the unit disc
    w2p = GradedVector(WD, {m: Scalar.integer(1) for g in range(15) for m in WD.basis(g)})
    series = sew(_tau_omega_block(u, w0, w2p), W, 14)
    rep = converge_diag(series, rat(1, 2))
    assert rep["ratios"] and max(rep["ratios"][-5:]) < 0.6

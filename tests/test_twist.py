import itertools
from fractions import Fraction

import pytest

from support import fock, heis, rat, st, vac
from voablocks.scalars import Scalar
from voablocks.series import FracLaurent
from voablocks import twist
from voablocks.twist import (
    TwistedModule,
    check_equivariance,
    check_grading,
    check_jacobi,
    eigencomponents,
    factorization_check,
    product_expansion_check,
)
from voablocks.voa import (
    GradedVector,
    VirasoroAlgebra,
    cycle_rotate,
    dual_of,
    dual_pairing,
    jacobi_difference,
    mode_action,
    tensor_vector,
)


H = heis(30)
W = fock(H, 0)
WD = dual_of(W)
A = st(H, (1,))
VAC = vac(H)


def test_non_heisenberg_base_unsupported():
    V = VirasoroAlgebra(rat(1, 2), cutoff=10)
    from voablocks.voa import FockModule

    with pytest.raises(ValueError):
        FockModule(V, 0)


def test_mode_index_off_lattice_rejected():
    tw = TwistedModule(W, 2)
    with pytest.raises(ValueError):
        tw.mode_apply(tensor_vector(tw.tensor, [A, VAC]), Fraction(1, 3), st(W, (1,)))


def test_k1_reduces_to_ordinary_modes():
    tw = TwistedModule(W, 1)
    u = tensor_vector(tw.tensor, [st(H, (2,))])
    wv = st(W, (1,))
    for n in range(-3, 4):
        assert (tw.mode_apply(u, n, wv) - mode_action(st(H, (2,)), n, wv)).is_zero()


def test_vacuum_slot_is_identity_field():
    for k in (2, 3):
        tw = TwistedModule(W, k)
        u = GradedVector.vacuum(tw.tensor)
        for wm in ((), (1,), (2, 1)):
            for pm in ((), (1,), (2, 1)):
                series = tw.pairing_series(u, wm, pm)
                if wm == pm:
                    assert series == FracLaurent.monomial("t", 0, 1)
                else:
                    assert series.is_zero()


def test_generator_modes_are_rescaled_oscillators():
    # Y^g(a (x) 1 ... (x) 1)_{m/k} = (1/k) a_m
    for k in (2, 3):
        tw = TwistedModule(W, k)
        wv = st(W, (2, 1))
        for m in range(-4, 5):
            img = tw.generator_mode_apply(A, Fraction(m, k), wv)
            expect = GradedVector(W)
            for mono, c in H.osc(m, (2, 1), W.momentum).items():
                expect = expect + st(W, mono, c * rat(1, k))
            assert (img - expect).is_zero(), (k, m)


def test_construction_paths_agree():
    # generator formula vs the k-point evaluation on their common domain; at
    # k = 1 the chart-corrected coefficients are Scalars, not t-series
    for k in (1, 2, 3):
        tw = TwistedModule(W, k)
        for g in range(0, 5):
            for vm in H.basis(g):
                v = st(H, vm)
                vt = tensor_vector(tw.tensor, [v] + [VAC] * (k - 1))
                for wg in range(0, 3):
                    for wm in W.basis(wg):
                        for pg in range(0, 3):
                            for pm in W.basis(pg):
                                s1 = tw.generator_series(v, wm, pm).drop_truncation()
                                s2 = tw.pairing_series(vt, wm, pm).drop_truncation()
                                assert s1 == s2, (k, vm, wm, pm)


def test_weight_band():
    # Y^g(u)_n maps W(b) into W(k wt(u) + b - kn - k): the generating series
    # between fixed grades is a single monomial in t
    for k in (2, 3):
        tw = TwistedModule(W, k)
        for u in (
            tensor_vector(tw.tensor, [st(H, (2,))] + [VAC] * (k - 1)),
            tensor_vector(tw.tensor, [A] + [VAC] * (k - 2) + [A]) if k >= 2 else None,
        ):
            if u is None:
                continue
            alpha = u.homogeneous_weight()
            for wg in range(0, 3):
                for wm in W.basis(wg):
                    for pg in range(0, 4):
                        for pm in W.basis(pg):
                            series = tw.pairing_series(u, wm, pm)
                            expected_exp = pg - k * alpha - wg
                            assert set(series.terms) <= {Fraction(expected_exp)}


def test_grading_axiom():
    for k in (2, 3):
        tw = TwistedModule(W, k)
        gen_vecs = [
            tensor_vector(tw.tensor, [st(H, m)] + [VAC] * (k - 1))
            for g in range(1, 5)
            for m in H.basis(g)
        ]
        states = [st(W, m) for g in range(0, 3) for m in W.basis(g)]
        ns = [Fraction(m, k) for m in range(-2 * k, 2 * k + 1)]
        assert check_grading(tw, gen_vecs, states, ns)


def test_equivariance_axiom():
    for k in (2, 3):
        tw = TwistedModule(W, k)
        gen_vecs = [
            tensor_vector(tw.tensor, [st(H, m)] + [VAC] * (k - 1))
            for g in range(1, 5)
            for m in H.basis(g)
        ]
        w_monos = [m for g in range(0, 3) for m in W.basis(g)]
        assert check_equivariance(tw, gen_vecs, w_monos, w_monos)


def test_equivariance_phase_explicitly():
    # k=3, u = a (x) 1 (x) 1: Y^g(gu)_{m/3} = w_3^{-m} Y^g(u)_{m/3}
    k = 3
    tw = TwistedModule(W, k)
    u = tensor_vector(tw.tensor, [A, VAC, VAC])
    gu = cycle_rotate(u)
    for wm in ((), (1,), (2,)):
        for pm in ((), (1,), (1, 1)):
            su = tw.pairing_series(u, wm, pm)
            sgu = tw.pairing_series(gu, wm, pm)
            for e in set(su.terms) | set(sgu.terms):
                m = -(int(e) + k)
                phase = Scalar.root_of_unity(k, -m % k)
                assert sgu.terms.get(e, Scalar.integer(0)) == phase * su.terms.get(
                    e, Scalar.integer(0)
                )


def test_invariant_vectors_have_integral_modes():
    from voablocks.voa import conformal_vector

    for k in (2, 3):
        tw = TwistedModule(W, k)
        cv = conformal_vector(tw.tensor)
        assert cycle_rotate(cv) == cv
        for wm in ((), (1,), (2,), (1, 1)):
            for pm in ((), (1,), (2,), (1, 1), (2, 1)):
                for n in tw.mode_support(cv, st(W, wm), st(WD, pm)):
                    assert Fraction(n).denominator == 1


def test_eigencomponents():
    k = 3
    tw = TwistedModule(W, k)
    u = tensor_vector(tw.tensor, [A, VAC, VAC])
    comps = eigencomponents(u, k)
    assert set(comps) == {0, 1, 2}
    total = GradedVector(tw.tensor)
    for j, uj in comps.items():
        total = total + uj
        expect = uj.scale(Scalar.root_of_unity(k, -j % k))
        assert (cycle_rotate(uj) - expect).is_zero()
    assert (total - u).is_zero()


def test_twisted_jacobi_k2():
    tw = TwistedModule(W, 2)
    u = tensor_vector(tw.tensor, [A, VAC])
    hs = [Fraction(x, 2) for x in range(-6, 7)]
    for pg in range(0, 5):
        for pm in W.basis(pg):
            ok, worst = check_jacobi(
                tw, u, u, vac(W), st(WD, pm), range(-3, 4), range(-3, 4), hs
            )
            assert ok, (pm, worst)


def test_twisted_jacobi_k2_mixed_slots():
    tw = TwistedModule(W, 2)
    u = tensor_vector(tw.tensor, [A, VAC])
    v = tensor_vector(tw.tensor, [VAC, A])
    hs = [Fraction(x, 2) for x in range(-4, 5)]
    for pg in range(0, 4):
        for pm in W.basis(pg):
            ok, worst = check_jacobi(
                tw, u, v, st(W, (1,)), st(WD, pm), range(-2, 3), range(-2, 3), hs
            )
            assert ok, (pm, worst)


def test_twisted_jacobi_k1_is_the_untwisted_identity():
    # at k = 1 the twisted action is Y itself and mu = m is an integer
    tw = TwistedModule(W, 1)
    u = tensor_vector(tw.tensor, [A])
    for pm in ((), (1,), (2,), (1, 1)):
        ok, worst = check_jacobi(tw, u, u, st(W, (1,)), st(WD, pm), range(-2, 3), range(-2, 3), range(-2, 3))
        assert ok, (pm, worst)


def test_twist_order_must_be_positive():
    for k in (0, -2):
        with pytest.raises(ValueError, match="positive"):
            TwistedModule(W, k)


def test_twisted_jacobi_k3_sample():
    tw = TwistedModule(W, 3)
    u = tensor_vector(tw.tensor, [A, VAC, VAC])
    hs = [Fraction(x, 3) for x in range(-4, 5)]
    for pm in ((), (1,), (2,), (1, 1)):
        ok, worst = check_jacobi(
            tw, u, u, vac(W), st(WD, pm), range(-2, 3), range(-2, 3), hs
        )
        assert ok, (pm, worst)


@pytest.mark.parametrize("k", [2, 3])
def test_check_jacobi_sweep_matches_one_instance_at_a_time(k):
    # an index-dependent factor on the twisted action breaks the identity,
    # so ok and the worst violation both depend on every memo key being exact
    tw = TwistedModule(W, k)
    exact = tw.mode_apply
    tw.mode_apply = lambda x, p, y: exact(x, p, y).scale(Scalar.from_fraction(Fraction(p) + 5))
    u = tensor_vector(tw.tensor, [A] + [VAC] * (k - 1))
    w = vac(W)
    ms = ns = range(-1, 2)
    hs = [Fraction(x, k) for x in range(-k, k + 1)]
    violated = False
    for pm in ((), (1,), (2,), (1, 1)):
        wp = st(WD, pm)
        ok, worst = True, 0.0
        for j, uj in eigencomponents(u, k).items():
            for m, n, h in itertools.product(ms, ns, hs):
                diff = dual_pairing(jacobi_difference(tw.mode_apply, uj, u, w, Fraction(j, k) + m, n, h, k), wp)
                if not diff.is_zero():
                    ok, worst = False, max(worst, abs(diff.to_complex()))
        assert check_jacobi(tw, u, u, w, wp, ms, ns, hs) == (ok, worst)
        violated = violated or not ok
    assert violated


def test_factorization_convergence():
    H44 = heis(44)
    W44 = fock(H44, 0)
    a44 = st(H44, (1,))
    v44 = vac(H44)
    tw = TwistedModule(W44, 2)
    rel, total, oracle, shells = factorization_check(
        tw,
        [a44, v44],
        [a44, v44],
        st(W44, (1,)),
        st(dual_of(W44), (1,)),
        rat(1, 4),
        rat(1, 2),
        shell_cutoff=40,
    )
    assert rel < 1e-8
    assert not oracle.is_zero()


def test_product_expansion_consistency():
    cases = [
        (2, A, [A, VAC], st(W, (1,)), st(WD, (1,))),
        (2, A, [A, VAC], vac(W), st(WD, (1, 1))),
        (2, st(H, (2,)), [A, VAC], st(W, (1,)), st(WD, (1,))),
        (3, A, [A, VAC, VAC], st(W, (1,)), st(WD, (1,))),
    ]
    for k, u, v_slots, w, wp in cases:
        tw = TwistedModule(W, k)
        ok, lhs, rhs = product_expansion_check(tw, u, v_slots, w, wp, rat(1, 2), order=4)
        assert ok, (k, lhs, rhs)
        assert not lhs.is_zero()


def test_full_mode_element_on_vectors():
    tw = TwistedModule(W, 2)
    u = tensor_vector(tw.tensor, [A, VAC])
    w = GradedVector(W, {(1,): rat(2), (2,): rat(3)})
    wp = GradedVector(WD, {(1,): rat(1), (): rat(5)})
    for m in range(-3, 4):
        n = Fraction(m, 2)
        direct = tw.full_mode_element(u, n, w, wp)
        via_apply = dual_pairing(tw.mode_apply(u, n, w), wp)
        assert (direct - via_apply).is_zero()


def test_fock_grading_offset():
    from voablocks.voa import FockModule

    Wl = FockModule(H, rat(2, 3))
    assert Wl.grading_offset == rat(2, 9)
    assert W.grading_offset.is_zero()


def test_jacobi_degenerates_on_vacuum_inputs():
    tw = TwistedModule(W, 2)
    vac_t = GradedVector.vacuum(tw.tensor)
    u = tensor_vector(tw.tensor, [A, VAC])
    hs = [Fraction(x, 2) for x in range(-3, 4)]
    for pm in ((), (1,), (1, 1)):
        ok, worst = check_jacobi(
            tw, vac_t, u, st(W, (1,)), st(WD, pm), range(-2, 3), range(-2, 3), hs
        )
        assert ok, (pm, worst)
        ok, worst = check_jacobi(
            tw, u, vac_t, st(W, (1,)), st(WD, pm), range(-2, 3), range(-2, 3), hs
        )
        assert ok, (pm, worst)


def test_pairing_series_is_linear_in_exact_coefficients():
    # the series cache must tell apart coefficients with equal hashes (-1, -2)
    for k in (2, 3):
        tw = TwistedModule(W, k)
        u = tensor_vector(tw.tensor, [A] + [VAC] * (k - 1))
        for c in (1, -1, -2, 2, 3, -3):
            got = tw.pairing_series(u.scale(Scalar.integer(c)), (1,), ())
            assert got == tw.pairing_series(u, (1,), ()).scale(c), (k, c)


def test_chart_cache_is_transparent():
    # a module whose chart cache was filled first, in reverse slot order,
    # answers exactly as a fresh one
    monos = [m for g in range(0, 4) for m in H.basis(g)]
    states = [m for g in range(0, 3) for m in W.basis(g)]
    for k in (2, 3):
        fresh = TwistedModule(W, k)
        warm = TwistedModule(W, k)
        for slot in reversed(range(k)):
            for vm in reversed(monos):
                warm.slot_corrected(vm, slot)
        assert warm.slot_corrected((1,), 0) != warm.slot_corrected((1,), 1)
        for vm in monos:
            v = st(H, vm)
            for wm in states:
                for pm in states:
                    assert fresh.generator_series(v, wm, pm) == warm.generator_series(v, wm, pm)
            for slot in range(k):
                factors = [VAC] * k
                factors[slot] = v
                u_fresh = tensor_vector(fresh.tensor, factors)
                u_warm = tensor_vector(warm.tensor, factors)
                for wm in states:
                    for pm in states:
                        assert fresh.pairing_series(u_fresh, wm, pm) == warm.pairing_series(u_warm, wm, pm)
                    for m in range(-k, k + 1):
                        n = Fraction(m, k)
                        got = warm.slot_mode_apply(vm, slot, n, st(W, wm))
                        assert got == fresh.slot_mode_apply(vm, slot, n, st(W, wm)), (k, vm, slot, m, wm)


def test_chart_correction_computed_once_per_monomial_and_slot(monkeypatch):
    calls = []
    original = twist.kth_root_shift

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(twist, "kth_root_shift", counted)
    k = 3
    tw = TwistedModule(W, k)
    vecs = []
    for vm in (m for g in range(1, 4) for m in H.basis(g)):
        for slot in range(k):
            factors = [VAC] * k
            factors[slot] = st(H, vm)
            vecs.append(tensor_vector(tw.tensor, factors))
    pairs = {(m, i) for u in vecs for mono in u.terms for i, m in enumerate(mono)}
    # the second sweep uses other states, so the series cache misses
    for wm, pm in (((), ()), ((1,), (2, 1))):
        for u in vecs:
            tw.pairing_series(u, wm, pm)
        assert len(calls) == len(pairs)

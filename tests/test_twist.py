import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from support import fock, full_mode_element, generator_mode_apply, heis, mode_support, rat, st, vac
from voablocks.blocks import heisenberg_correlator
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
    CutoffOverflow,
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


def test_pairing_series_refuses_a_non_basis_state():
    # also for the zero vector, whose series calls no oracle
    tw = TwistedModule(W, 2)
    for u in (tensor_vector(tw.tensor, [A, A]), GradedVector(tw.tensor)):
        for w_mono, wp_mono in (((0,), ()), ((), (1, 2))):
            with pytest.raises(ValueError, match="basis monomial"):
                tw.pairing_series(u, w_mono, wp_mono)


def test_generator_series_refuses_a_non_basis_state():
    # also for the zero vector, which reaches no generator-formula mode
    tw = TwistedModule(W, 2)
    for v in (A, GradedVector(H)):
        for w_mono, wp_mono in (((0,), ()), ((), (1, 2)), ([1, 2], ())):
            with pytest.raises(ValueError, match="basis monomial"):
                tw.generator_series(v, w_mono, wp_mono)
    assert tw.generator_series(A, [1], ()) == tw.generator_series(A, (1,), ())


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
            img = generator_mode_apply(tw, A, Fraction(m, k), wv)
            expect = GradedVector(W)
            for mono, c in H.osc(m, (2, 1), W.momentum).items():
                expect = expect + st(W, mono, c * rat(1, k))
            assert (img - expect).is_zero(), (k, m)


def test_construction_paths_agree():
    # generator formula vs the k-point evaluation on their common domain, at
    # momenta 0 and 2/3; each weight component of the mixed v meets w' through
    # its own mode.  At k = 1 the chart-corrected coefficients are Scalars,
    # not t-series
    mixed = st(H, (2,)) + st(H, (1, 1), rat(-1, 3)) + A
    vs = [st(H, vm) for g in range(0, 5) for vm in H.basis(g)] + [mixed]
    for Wm in (W, fock(H, rat(2, 3))):
        states = [m for g in range(0, 3) for m in Wm.basis(g)]
        for k in (1, 2, 3):
            tw = TwistedModule(Wm, k)
            for v in vs:
                vt = tensor_vector(tw.tensor, [v] + [VAC] * (k - 1))
                for wm in states:
                    for pm in states:
                        s1 = tw.generator_series(v, wm, pm).drop_truncation()
                        s2 = tw.pairing_series(vt, wm, pm).drop_truncation()
                        assert s1 == s2, (Wm.momentum, k, v, wm, pm)
        assert not tw.generator_series(mixed, (1,), (2,)).is_zero()


@pytest.mark.parametrize("momentum", [0, rat(2, 3)], ids=["0", "2/3"])
def test_slot_modes_match_the_oracle_at_every_slot(momentum):
    # the generator formula carried to the root point of each slot against
    # the k-point oracle with the same vector in that slot
    Wm = fock(H, momentum)
    WmD = dual_of(Wm)
    monos = [m for g in range(0, 3) for m in H.basis(g)]
    states = [m for g in range(0, 3) for m in Wm.basis(g)]
    for k in (2, 3):
        tw = TwistedModule(Wm, k)
        for vm in monos:
            for slot in range(k):
                factors = [VAC] * k
                factors[slot] = st(H, vm)
                u = tensor_vector(tw.tensor, factors)
                for wm in states:
                    for m in range(-k, k + 1):
                        img = tw.slot_mode_apply(vm, slot, Fraction(m, k), st(Wm, wm))
                        for pm in states:
                            oracle = tw.pairing_series(u, wm, pm).coeff(-m - k)
                            assert dual_pairing(img, st(WmD, pm)) == oracle, (k, vm, slot, m, wm, pm)


def test_slot_outside_the_twist_order_is_refused():
    # at k = 2 slot 2 used to alias slot 0 and slot -1 slot 1, each cached
    # under a key of its own; a refused slot adds nothing to the chart or
    # slot-mode caches, of a fresh module or of one whose caches hold the
    # valid slots
    fresh, warm = TwistedModule(W, 2), TwistedModule(W, 2)
    for slot in range(2):
        warm.slot_mode_apply((1,), slot, Fraction(1, 2), st(W, (1,)))
    for tw in (fresh, warm):
        before = (dict(tw._corrected), dict(tw._charts), dict(tw._slot_modes))
        for slot in (2, -1, 5):
            with pytest.raises(ValueError, match="slot"):
                tw.slot_corrected((1,), slot)
            with pytest.raises(ValueError, match="slot"):
                tw.slot_mode_apply((1,), slot, Fraction(1, 2), st(W, (1,)))
        assert (tw._corrected, tw._charts, tw._slot_modes) == before
    assert not fresh._corrected and not fresh._charts and not fresh._slot_modes
    assert warm._slot_modes


def test_cutoff_overflow_stores_no_slot_mode():
    # Y^g(a in slot 1)_{-3/2} maps grade b to grade b + 3: a_{-1}|0> fits
    # the cutoff 4, a_{-2}a_{-1}|0> does not
    W4 = fock(heis(4), 0)
    tw = TwistedModule(W4, 2)
    n, low, high = Fraction(-3, 2), st(W4, (1,)), st(W4, (2, 1))
    assert not tw.slot_mode_apply((1,), 1, n, low).is_zero()
    before = dict(tw._slot_modes)
    for _ in range(2):
        with pytest.raises(CutoffOverflow):
            tw.slot_mode_apply((1,), 1, n, low + high)
        assert tw._slot_modes == before


def test_second_grading_check_makes_no_base_mode_action(monkeypatch):
    # every twisted mode of the second check is a slot-mode memo hit
    calls = []
    original = twist._apply_field

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(twist, "_apply_field", counted)
    tw = TwistedModule(W, 2)
    gen_vecs = [tensor_vector(tw.tensor, [st(H, m), VAC]) for g in range(1, 4) for m in H.basis(g)]
    states = [st(W, m) for g in range(0, 3) for m in W.basis(g)]
    ns = [Fraction(m, 2) for m in range(-4, 5)]
    assert check_grading(tw, gen_vecs, states, ns)
    assert calls
    calls.clear()
    assert check_grading(tw, gen_vecs, states, ns)
    assert not calls


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
        # the mode one step up shifts the weight by 1/k less than n claims
        exact = tw.mode_apply
        tw.mode_apply = lambda x, p, y: exact(x, p + Fraction(1, k), y)
        assert not check_grading(tw, gen_vecs, states, ns)


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
                for n in mode_support(tw, cv, st(W, wm), st(WD, pm)):
                    assert Fraction(n).denominator == 1


def test_twisted_zero_mode_on_the_fock_module():
    # L^g_0 = Y^g(omega)_1 acts as L_0/k + (k^2 - 1)/(24k) for the conformal
    # vector omega of the tensor power (c = 1)
    from voablocks.voa import conformal_vector

    expected = {
        2: [rat(1, 16), rat(9, 16), rat(17, 16), rat(17, 16)],
        3: [rat(1, 9), rat(4, 9), rat(7, 9), rat(7, 9)],
    }
    for k, values in expected.items():
        tw = TwistedModule(W, k)
        omega = conformal_vector(tw.tensor)
        for wm, value in zip(((), (1,), (2,), (1, 1)), values):
            w = st(W, wm)
            assert value == Fraction(W.weight(wm), k) + Fraction(k * k - 1, 24 * k)
            assert tw.mode_apply(omega, 1, w) == w.scale(value), (k, wm)


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


def test_twist_order_above_the_cyclotomic_limit_is_refused():
    # the root points of a larger k would need cyclotomic fields the scalars
    # refuse; building them used to run for minutes
    for k in (1001, 10**9):
        with pytest.raises(ValueError, match="exceeds"):
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


def test_factorization_with_two_nonvacuum_z_slots():
    # two non-vacuum z-slots build the z-side vector from the oracle value at
    # each basis state; with w = a_{-1}|0> the odd Wick count makes every
    # value vanish (measured before the graded contraction: rel 0.0, all
    # nine shells zero)
    H20 = heis(20)
    W20 = fock(H20, 0)
    WD20 = dual_of(W20)
    a, v = st(H20, (1,)), vac(H20)
    tw = TwistedModule(W20, 2)
    rel, total, oracle, shells = factorization_check(
        tw, [a, a], [a, v], st(W20, (1,)), st(WD20, (1,)), rat(1, 4), rat(1), shell_cutoff=8
    )
    assert rel == 0.0 and total.is_zero() and oracle.is_zero()
    assert shells == [(g, Scalar.integer(0)) for g in range(9)]
    # with w = |0> the sides do not vanish: every shell is the sum over the
    # Casimir basis pairs of z-side times xi-side oracle values
    w = vac(W20)
    wp = st(WD20, (1,))
    zpts, xipts = twist._root_points(2, rat(1, 4)), twist._root_points(2, rat(1))
    cu = [twist._chart_corrected(2, x, p) for x, p in zip([a, a], zpts)]
    cv = [twist._chart_corrected(2, x, p) for x, p in zip([a, v], xipts)]
    rels = []
    for cutoff in (8, 12):
        rel, total, oracle, shells = factorization_check(tw, [a, a], [a, v], w, wp, rat(1, 4), rat(1), cutoff)
        for g, shell in shells:
            by_pairs = Scalar.integer(0)
            for mono in W20.basis(g):
                a_val = heisenberg_correlator(cu, w, st(WD20, mono)).evaluate(dict(enumerate(zpts)))
                b_val = heisenberg_correlator(cv, st(W20, mono), wp).evaluate(dict(enumerate(xipts)))
                by_pairs = by_pairs + a_val * b_val
            assert (shell - by_pairs).is_zero(), (cutoff, g)
        assert not oracle.is_zero()
        rels.append(rel)
    assert rels[1] < rels[0] < 1e-4


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
        assert lhs.trunc == 4
        assert not lhs.is_zero()


def test_full_mode_element_on_vectors():
    tw = TwistedModule(W, 2)
    u = tensor_vector(tw.tensor, [A, VAC])
    w = GradedVector(W, {(1,): rat(2), (2,): rat(3)})
    wp = GradedVector(WD, {(1,): rat(1), (): rat(5)})
    for m in range(-3, 4):
        n = Fraction(m, 2)
        direct = full_mode_element(tw, u, n, w, wp)
        via_apply = dual_pairing(tw.mode_apply(u, n, w), wp)
        assert (direct - via_apply).is_zero()


def test_fock_grading_offset():
    # L_0 on a Fock state is its stored grade plus the momentum vacuum's
    # conformal weight momentum^2 / 2
    from voablocks.voa import FockModule, virasoro_mode

    for momentum, offset in ((rat(2, 3), rat(2, 9)), (0, 0)):
        Wl = FockModule(H, momentum)
        for mono in ((), (1,), (2, 1)):
            state = st(Wl, mono)
            assert virasoro_mode(0, state) == state.scale(offset + sum(mono))


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


_SERIES_BASE = [st(H, (1,)), st(H, (2,)) + st(H, (1, 1), rat(-1, 3))]
_SERIES_STATES = [(), (1,), (2,), (1, 1)]
_SERIES_MODULE = fock(H, rat(2, 3))  # the zero mode makes more pairings nonzero


def _series_query(twm, kind, scale, i, j, l):
    """One query of ``twm`` on scale times the i-th base vector: as the
    generator-path input or in one slot of a tensor vector, the series
    between the j-th and l-th states; or, for ``"mode"``, the mode
    (l - 4)/k of that tensor vector on the j-th and next state, summed."""
    v = _SERIES_BASE[i % len(_SERIES_BASE)].scale(scale)
    w_mono, wp_mono = _SERIES_STATES[j % len(_SERIES_STATES)], _SERIES_STATES[l % len(_SERIES_STATES)]
    if kind == "generator":
        return twm.generator_series(v, w_mono, wp_mono)
    factors = [VAC] * twm.k
    factors[i % twm.k] = v
    u = tensor_vector(twm.tensor, factors)
    if kind == "mode":
        w = st(_SERIES_MODULE, w_mono) + st(_SERIES_MODULE, _SERIES_STATES[(j + 1) % len(_SERIES_STATES)], rat(-1, 2))
        return twm.mode_apply(u, Fraction(l - 4, twm.k), w)
    return twm.pairing_series(u, w_mono, wp_mono)


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(
    hst.lists(
        hst.tuples(
            hst.sampled_from(["generator", "pairing", "mode"]),
            hst.integers(0, 9),
            hst.integers(0, 9),
            hst.integers(0, 9),
        ),
        min_size=1,
        max_size=4,
    ),
    hst.randoms(use_true_random=False),
)
def test_series_caches_are_transparent(draws, rng):
    # one module per k fills its _oracle_values and _slot_modes in a shuffled order,
    # each draw with the multiples 1, -1, -2, 2 and 3 of its vector (hash(-1)
    # == hash(-2) for ints and Fractions: the shape of an old hash-keyed cache
    # collision); each result must equal that of a fresh module
    warm = {k: TwistedModule(_SERIES_MODULE, k) for k in (2, 3)}
    queries = [
        (k, (kind, scale, *rest)) for kind, *rest in draws for scale in (1, -1, -2, 2, 3) for k in warm
    ]
    rng.shuffle(queries)
    got = [_series_query(warm[k], *query) for k, query in queries]
    assert any(twm._oracle_values or twm._slot_modes for twm in warm.values())
    for (k, query), series in zip(queries, got):
        assert series == _series_query(TwistedModule(_SERIES_MODULE, k), *query), (k, query)


def test_chart_change_solved_once_per_slot_and_order(monkeypatch):
    # the k-th-root chart change at a slot's root point depends on the
    # monomial only through its order wt + 1, so monomials share it
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
    charts = {(i, sum(m) + 1) for u in vecs for mono in u.terms for i, m in enumerate(mono)}
    expected = {(k, order, tw._points[i]) for i, order in charts}
    # the second sweep uses other states, so the series cache misses
    for wm, pm in (((), ()), ((1,), (2, 1))):
        for u in vecs:
            tw.pairing_series(u, wm, pm)
        assert len(calls) == len(charts) and set(calls) == expected


@pytest.mark.parametrize("momentum", [0, rat(2, 3)], ids=["0", "2/3"])
def test_pairing_series_matches_the_symbolic_root_point_block(momentum):
    # the module works at t = 1 and places each oracle value at the exponent
    # the grading fixes; the reference evaluates the block at root points
    # w_k^i t off the unit circle, with the slots chart-corrected there
    # directly, so it does not lean on the covariance the module uses
    Wm = fock(H, momentum)
    WmD = dual_of(Wm)
    states = [m for g in range(0, 3) for m in Wm.basis(g)]
    for k in (1, 2, 3, 4):
        tw = TwistedModule(Wm, k)
        monos = [
            mono
            for g in range(0, 4)
            for mono in tw.tensor.basis(g)
            if sum(m != () for m in mono) >= min(2, k)
        ]
        assert monos
        for t in (rat(1, 2), rat(-3)):
            pts = {i: Scalar.root_of_unity(k, i) * t for i in range(k)}
            for mono in monos:
                u = GradedVector(tw.tensor, {mono: 1})
                slots = [twist._chart_corrected(k, st(H, m), pts[i]) for i, m in enumerate(mono)]
                for wm in states:
                    for pm in states:
                        ref = heisenberg_correlator(slots, st(Wm, wm), st(WmD, pm)).evaluate(pts)
                        assert tw.pairing_series(u, wm, pm).evaluate(t) == ref, (k, t, mono, wm, pm)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_chart_correction_is_covariant_in_the_root_point(k):
    # R(rho_s) = s^{L0} R(rho_1) s^{-k L0}: the chart correction of v at s
    # is its correction at 1 with each weight-hw part scaled by
    # s^(hw - k wt v); product_expansion_check relies on it
    points = (rat(1, 2), rat(-3), Scalar.root_of_unity(3, 1) + rat(1, 2))
    for g in range(5):
        for mono in H.basis(g):
            v = st(H, mono)
            at_one = twist._chart_corrected(k, v, 1).weight_components()
            for s in points:
                expect = GradedVector(H)
                for hw, part in at_one.items():
                    expect = expect + part.scale(s ** (hw - k * g))
                assert twist._chart_corrected(k, v, s) == expect, (k, mono, s)


def test_pairing_series_of_multiples_evaluates_the_oracle_once_per_base_combination(monkeypatch):
    # u = a (x) a - 1/2 1 (x) a_{-2}: chart-corrected, a stays a multiple of a
    # while a_{-2} picks up an a_{-1} part, so the oracle sees the three
    # base-monomial combinations (a, a), (1, a_{-2}) and (1, a_{-1}), each once
    calls = []
    original = twist.heisenberg_correlator

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(twist, "heisenberg_correlator", counted)
    for k in (2, 3):
        tw = TwistedModule(_SERIES_MODULE, k)
        u = tensor_vector(tw.tensor, [A, A] + [VAC] * (k - 2)) + tensor_vector(
            tw.tensor, [VAC, st(H, (2,))] + [VAC] * (k - 2)
        ).scale(rat(-1, 2))
        combos = {
            combo
            for mono in u.terms
            for combo in itertools.product(*(tw.slot_corrected(m, i).terms for i, m in enumerate(mono)))
        }
        calls.clear()
        for c in (1, -1, -2, 2, 3):
            tw.pairing_series(u.scale(Scalar.integer(c)), (1,), (2,))
        assert len(calls) == len(combos) == 3, (k, len(calls))
        called = {tuple(next(iter(v.terms)) for v in slots) for slots, _, _ in calls}
        assert called == combos


def test_pairing_series_reads_list_monomials_as_tuples():
    # as generator_series does; a non-basis monomial is still refused
    tw = TwistedModule(_SERIES_MODULE, 2)
    u = tensor_vector(tw.tensor, [A, st(H, (2,))])
    assert tw.pairing_series(u, [1], [2]) == tw.pairing_series(u, (1,), (2,))
    assert tw.pairing_series(u, [1], [2]) == tw.pairing_series(u, (1,), [2])
    assert not tw.pairing_series(u, [1], [2]).is_zero()
    v = st(H, (2,))
    assert tw.generator_series(v, [1], [2]) == tw.generator_series(v, (1,), (2,))
    for w_mono, wp_mono in (([1, 2], [2]), ([1], [0]), ((1,), (1, 2))):
        with pytest.raises(ValueError):
            tw.pairing_series(u, w_mono, wp_mono)

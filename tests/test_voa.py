import collections
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from support import fock, heis, rat, st, vac
from voablocks.blocks import propagate_eval
from voablocks.scalars import Scalar
from voablocks.voa import (
    CutoffOverflow,
    GradedVector,
    TensorPowerAlgebra,
    VirasoroAlgebra,
    conformal_vector,
    contragredient_mode,
    cycle_rotate,
    dual_of,
    dual_pairing,
    jacobi_difference,
    jacobi_sweep,
    mode_action,
    tensor_vector,
    virasoro_mode,
)


H = heis(24)
A = st(H, (1,))
VAC = vac(H)


def test_vacuum_axiom():
    w = st(H, (3, 1))
    assert mode_action(VAC, -1, w) == w
    for n in (-3, -2, 0, 1, 2):
        assert mode_action(VAC, n, w).is_zero()


def test_oscillator_commutator_example():
    assert mode_action(A, 1, A) == VAC
    assert mode_action(A, 0, A).is_zero()
    # [a_m, a_n] = m delta_{m+n,0} on a deeper state
    w = st(H, (2, 2, 1))
    up = mode_action(A, 2, w)
    assert up == st(H, (2, 1), 4)


def test_virasoro_zero_mode_is_grading():
    for mono in H.basis(3) + H.basis(4):
        w = st(H, mono)
        assert virasoro_mode(0, w) == w.scale(sum(mono))


def test_heisenberg_primary():
    assert virasoro_mode(1, A).is_zero()
    assert virasoro_mode(-1, A) == st(H, (2,))


def test_conformal_vector_weight():
    c = conformal_vector(H)
    assert virasoro_mode(0, c) == c.scale(2)
    assert mode_action(c, 1, A) == A  # L_0 a = a


def test_virasoro_algebra_examples():
    V = VirasoroAlgebra(rat(1, 2), cutoff=16)
    cv = st(V, (2,))
    assert mode_action(cv, 3, cv) == vac(V).scale(rat(1, 4))  # L_2 c = (c/2) |0>
    assert virasoro_mode(0, st(V, (3, 2))) == st(V, (3, 2), 5)


@pytest.mark.parametrize("algebra", ["virasoro", "heisenberg"])
def test_virasoro_bracket(algebra):
    if algebra == "virasoro":
        alg = VirasoroAlgebra(rat(-22, 5), cutoff=18)
        cc = alg.central_charge
        grades = range(0, 5)
        span = 4
    else:
        alg = heis(18)
        cc = Scalar.integer(1)
        grades = range(0, 4)
        span = 3
    for m in range(-span, span + 1):
        for n in range(-span, span + 1):
            for g in grades:
                for mono in alg.basis(g):
                    w = GradedVector.state(alg, mono)
                    try:
                        lhs = virasoro_mode(m, virasoro_mode(n, w)) - virasoro_mode(
                            n, virasoro_mode(m, w)
                        )
                        rhs = virasoro_mode(m + n, w).scale(m - n)
                    except CutoffOverflow:
                        continue
                    if m + n == 0:
                        rhs = rhs + w.scale(cc * rat(m**3 - m, 12))
                    assert (lhs - rhs).is_zero(), (algebra, m, n, mono)


def test_dual_pairing_examples():
    W = fock(H, 0)
    Wd = dual_of(W)
    assert dual_pairing(vac(W), vac(Wd)) == Scalar.integer(1)
    assert dual_pairing(st(W, (1,)), st(Wd, (2,))).is_zero()
    assert dual_pairing(st(W, (1,)), st(Wd, (1,))) == Scalar.integer(1)
    assert dual_pairing(st(W, (2, 1)), st(Wd, (2, 1))) == Scalar.integer(1)
    with pytest.raises(ValueError):
        dual_pairing(st(W, (1,)), st(W, (1,)))


def test_grading_adjointness_of_pairing():
    W = fock(H, 0)
    Wd = dual_of(W)
    w = GradedVector(W, {(1,): rat(2), (2, 1): rat(1, 3)})
    wp = GradedVector(Wd, {(1,): rat(5), (2, 1): rat(7)})

    def grade_op(v):
        out = GradedVector(v.space)
        for h, part in v.weight_components().items():
            out = out + part.scale(h)
        return out

    assert dual_pairing(grade_op(w), wp) == dual_pairing(w, grade_op(wp))


def test_tensor_and_rotation():
    T = TensorPowerAlgebra(H, 3)
    u = tensor_vector(T, [A, VAC, VAC])
    assert cycle_rotate(u) == tensor_vector(T, [VAC, A, VAC])
    x = u
    for _ in range(3):
        x = cycle_rotate(x)
    assert x == u
    assert cycle_rotate(conformal_vector(T)) == conformal_vector(T)
    rng = random.Random(3)
    for _ in range(50):
        factors = []
        for _ in range(3):
            g = rng.randint(0, 2)
            mono = rng.choice(H.basis(g))
            factors.append(st(H, mono, rat(rng.randint(1, 4), rng.randint(1, 3))))
        v = tensor_vector(T, factors)
        x = v
        for _ in range(3):
            x = cycle_rotate(x)
        assert x == v
    with pytest.raises(ValueError):
        tensor_vector(T, [A, VAC])


def test_tensor_mode_matches_slotwise_product():
    T = TensorPowerAlgebra(H, 2)
    u = tensor_vector(T, [A, A])
    w = tensor_vector(T, [VAC, VAC])
    out = mode_action(u, -3, w)
    # coefficient of z^2 in Y(a,z)1 (x) Y(a,z)1 = sum z^{m1-1+m2-1}
    expect = GradedVector(T)
    for m1 in (1, 2, 3):
        m2 = 4 - m1
        expect = expect + tensor_vector(T, [st(H, (m1,)), st(H, (m2,))])
    assert out == expect


def test_mode_lower_truncation_scan():
    for um in H.basis(2) + H.basis(3):
        for wm in H.basis(2):
            u, w = st(H, um), st(H, wm)
            n0 = sum(um) + sum(wm)
            for n in range(n0, n0 + 4):
                assert mode_action(u, n, w).is_zero()


def test_cutoff_overflow_signal():
    small = heis(4)
    w = GradedVector.state(small, (2, 2))
    with pytest.raises(CutoffOverflow) as err:
        mode_action(GradedVector.state(small, (1,)), -1, w)
    assert err.value.weight == 5


def test_skew_symmetry_low_grades():
    def sgn(e):
        return -1 if e % 2 else 1

    for gu in range(0, 4):
        for gv in range(0, 4):
            for um in H.basis(gu):
                for vm in H.basis(gv):
                    u, v = st(H, um), st(H, vm)
                    for n in range(-3, gu + gv):
                        lhs = mode_action(u, n, v)
                        rhs = GradedVector(H)
                        for j in range(0, gu + gv - n):
                            t = mode_action(v, n + j, u)
                            for _ in range(j):
                                t = virasoro_mode(-1, t)
                            rhs = rhs + t.scale(rat(sgn(n + j + 1), math.factorial(j)))
                        assert (lhs - rhs).is_zero(), (um, vm, n)


def test_borcherds_identity_sampled_grade4():
    rng = random.Random(17)
    W = fock(H, 0)
    monos = [m for g in range(0, 5) for m in H.basis(g)]
    for _ in range(60):
        u = st(H, rng.choice(monos))
        v = st(H, rng.choice(monos))
        w = GradedVector.state(W, rng.choice(monos))
        m, n, h = (rng.randint(-2, 2) for _ in range(3))
        assert jacobi_difference(mode_action, u, v, w, m, n, h).is_zero()


def test_jacobi_difference_detects_a_wrong_module_action():
    # doubling Y_W breaks the identity (the iterate Y(u)_{n+l} v stays in
    # the algebra), so a check that always reports zero fails here
    W = fock(H, 0)
    monos = [m for g in range(0, 3) for m in H.basis(g)]
    caught = 0
    for um, vm, wm in itertools.product(monos, monos, monos):
        u, v, w = st(H, um), st(H, vm), GradedVector.state(W, wm)
        for m, n, h in itertools.product(range(-1, 2), repeat=3):
            assert jacobi_difference(mode_action, u, v, w, m, n, h).is_zero()
            doubled = jacobi_difference(lambda x, p, y: mode_action(x, p, y).scale(2), u, v, w, m, n, h)
            caught += not doubled.is_zero()
    assert caught > 0


def _sweep_slice():
    # the grade <= 2, |m|, |n|, |h| <= 2 slice of the untwisted sweep
    W = fock(H, 0)
    monos = [m for g in range(0, 3) for m in H.basis(g)]
    triples = [
        (st(H, um), st(H, vm), GradedVector.state(W, wm)) for um, vm, wm in itertools.product(monos, repeat=3)
    ]
    return triples, list(itertools.product(range(-2, 3), repeat=3))


@pytest.mark.parametrize(
    "act",
    [
        # an index-dependent factor: a memo key that drops or swaps an index
        # returns a different nonzero vector
        lambda x, p, y: mode_action(x, p, y).scale(p + 5),
        lambda x, p, y: mode_action(x, p, y).scale(2),
    ],
    ids=["index-scaled", "doubled"],
)
def test_jacobi_sweep_matches_one_instance_at_a_time(act):
    triples, inst = _sweep_slice()
    nonzero = 0
    for u, v, w in triples:
        swept = list(jacobi_sweep(act, u, v, w, inst))
        assert swept == [jacobi_difference(act, u, v, w, *i) for i in inst]
        nonzero += sum(not d.is_zero() for d in swept)
    assert nonzero > 0


def test_jacobi_sweep_makes_each_action_once(monkeypatch):
    # every action of one triple's sweep, the algebra iterate included, goes
    # through the counter; none may be made twice
    from voablocks import voa

    calls = collections.Counter()

    def counted(x, p, y):
        calls[(x, p, y)] += 1
        return mode_action(x, p, y)

    monkeypatch.setattr(voa, "mode_action", counted)
    W = fock(H, 0)
    u, v, w = A, st(H, (2,)), st(W, (1, 1))
    _, inst = _sweep_slice()
    diffs = list(jacobi_sweep(counted, u, v, w, inst))
    assert len(diffs) == len(inst) and all(d.is_zero() for d in diffs)
    assert max(calls.values()) == 1
    swept = sum(calls.values())
    calls.clear()
    for i in inst:
        jacobi_difference(counted, u, v, w, *i)
    assert swept < sum(calls.values()) / 4


def test_jacobi_difference_rejects_inhomogeneous_input():
    W = fock(H, 0)
    mixed = A + st(H, (2,))
    with pytest.raises(ValueError):
        jacobi_difference(mode_action, mixed, A, vac(W), 0, 0, 0)


def test_fock_momentum_action():
    W = fock(H, rat(2, 3))
    w = vac(W)
    out = mode_action(A, 0, w)
    assert out == w.scale(rat(2, 3))


def test_contragredient_mode_consistency():
    # <Y(u, z) w, w'> re-expanded at infinity agrees with the adjoint modes:
    # sum over matrix elements must satisfy the FHL relation pairing-by-pairing
    W = fock(H, 0)
    Wd = dual_of(W)
    u = st(H, (2,))
    w = st(W, (1,))
    for wp_mono in ((1,), (2, 1), (1, 1, 1)):
        wp = st(Wd, wp_mono)
        for n in range(-4, 5):
            img = contragredient_mode(u, n, wp)
            # direct check of the defining adjoint sum on every basis vector
            h = 2
            target = h + W.weight(wp_mono) - n - 1
            if target < 0:
                assert img.is_zero()
                continue
            for b in W.basis(target):
                val = Scalar.integer(0)
                uj = u
                j = 0
                while not uj.is_zero():
                    acted = mode_action(uj, 2 * h - j - n - 2, st(W, b))
                    val = val + dual_pairing(acted, wp).__mul__(
                        rat((-1) ** h, math.factorial(j))
                    )
                    uj = virasoro_mode(1, uj)
                    j += 1
                assert img.coefficient(b) == val


# ---------------------------------------------------------------------------
# the generator-descendant base case of mode_mono, checked through axioms that
# do not mention its formula


_CENTRAL_CHARGES = {"virasoro-1/2": rat(1, 2), "virasoro--22/5": rat(-22, 5)}
_MOMENTA = {"heisenberg": None, "fock-0": rat(0), "fock-2/3": rat(2, 3)}


def _mode_space(name):
    """(algebra, module) of one of the spaces the base-case tests cover."""
    if name in _CENTRAL_CHARGES:
        alg = VirasoroAlgebra(_CENTRAL_CHARGES[name], cutoff=30)
        return alg, alg
    alg = heis(30)
    return alg, alg if _MOMENTA[name] is None else fock(alg, _MOMENTA[name])


@pytest.mark.parametrize("name", [*_MOMENTA, *_CENTRAL_CHARGES])
def test_translation_property(name):
    # Y(L_{-1} u)_n w = -n Y(u)_{n-1} w for every basis u of grade <= 5
    alg, module = _mode_space(name)
    checked = 0
    for gu in range(6):
        for um in alg.basis(gu):
            u = st(alg, um)
            du = virasoro_mode(-1, u)
            for gw in range(4):
                for wm in module.basis(gw):
                    w = st(module, wm)
                    for n in range(-3, gu + gw + 2):
                        lhs = mode_action(du, n, w)
                        rhs = mode_action(u, n - 1, w).scale(-n)
                        assert lhs == rhs, (um, n, wm)
                        checked += not lhs.is_zero()
    assert checked > 100


@pytest.mark.parametrize("name", ["heisenberg", *_CENTRAL_CHARGES])
def test_creation_property(name):
    # Y(u)_{-1}|0> = u and Y(u)_n|0> = 0 for n >= 0, for every basis u of grade <= 5
    alg, _ = _mode_space(name)
    vacuum = vac(alg)
    for gu in range(6):
        for um in alg.basis(gu):
            u = st(alg, um)
            assert mode_action(u, -1, vacuum) == u, um
            for n in range(0, gu + 1):
                assert mode_action(u, n, vacuum).is_zero(), (um, n)


def test_propagation_never_recurses_to_the_vacuum(monkeypatch):
    # the iterate recursion stops at generator descendants, so a 4-point
    # propagation asks for no mode of |0>
    H16 = heis(16)
    W = fock(H16, 0)
    a = st(H16, (1,))
    original = H16.mode_mono
    seen = collections.Counter()

    def counted(u_mono, n, w_mono, module):
        seen[u_mono == ()] += 1
        return original(u_mono, n, w_mono, module)

    monkeypatch.setattr(H16, "mode_mono", counted)
    zs = [rat(1), rat(2), rat(4), rat(8)]
    res = propagate_eval([a] * 4, zs, vac(W), vac(dual_of(W)), 16)
    assert not res.value.is_zero()
    assert seen[False] > 0 and seen[True] == 0


# ---------------------------------------------------------------------------
# the mode cache is transparent: warm results equal cold ones


_CACHE_U = tuple(m for g in range(4) for m in heis(1).basis(g))
_CACHE_W = tuple(m for g in range(3) for m in heis(1).basis(g))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    hst.lists(
        hst.tuples(hst.sampled_from(_CACHE_U), hst.integers(-4, 3), hst.sampled_from(_CACHE_W)),
        min_size=1,
        max_size=6,
    ),
    hst.randoms(use_true_random=False),
)
def test_mode_cache_is_transparent(triples, rng):
    # one algebra fills its cache in a shuffled order over the adjoint module
    # and Fock momenta 0 and 2/3 (a key without the module mixes them up);
    # each result must equal that of a fresh algebra
    momenta = tuple(_MOMENTA.values())
    warm = heis(12)
    modules = [warm if p is None else fock(warm, p) for p in momenta]
    queries = [(u, n, w, i) for u, n, w in triples for i in range(3)]
    rng.shuffle(queries)
    for u, n, w, i in queries:
        warm.mode_mono(u, n, w, modules[i])
    for u, n, w, i in queries:
        cold = heis(12)
        cold_module = cold if momenta[i] is None else fock(cold, momenta[i])
        got = warm.mode_mono(u, n, w, modules[i])
        assert got == cold.mode_mono(u, n, w, cold_module), (u, n, w, i)
        for m in got:
            modules[i].check_mono(m)


# ---------------------------------------------------------------------------
# basis monomials are checked where states are made


def test_state_rejects_non_basis_monomials():
    W = fock(H, 0)
    V = VirasoroAlgebra(rat(1, 2), cutoff=10)
    T = TensorPowerAlgebra(H, 2)
    bad = [
        (H, (1, 2)), (W, (1, 2)), (dual_of(W), (1, 2)), (W, (0,)), (H, (-1,)), (H, (1.0,)), (H, (True,)),
        (V, (2, 3)), (V, (1,)), (T, ((1,),)), (T, ((1,), (1, 2))), (T, ([1], ())),
    ]
    for space, mono in bad:
        with pytest.raises(ValueError, match="not a basis monomial"):
            st(space, mono)
    for space, mono in ((H, ()), (W, (2, 1, 1)), (dual_of(W), [2, 1]), (V, (3, 2)), (T, ((1,), ()))):
        assert st(space, mono).terms == {tuple(mono): Scalar.integer(1)}

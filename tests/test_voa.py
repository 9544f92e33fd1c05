import itertools
import math
import random
from fractions import Fraction

import pytest

from support import fock, heis, rat, st, vac
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

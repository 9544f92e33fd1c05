import collections
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from support import fock, heis, rat, st, vac
from voablocks.blocks import RationalExpr, heisenberg_correlator, propagate_eval, propagate_expand
from voablocks.scalars import Scalar
from voablocks.series import FracLaurent
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
# a momentum outside Q: its mode tables keep cyclotomic Scalars
_ZETA3_MOMENTUM = Scalar.root_of_unity(3) + rat(1, 2)


def _mode_space(name):
    """(algebra, module) of one of the spaces the base-case tests cover."""
    if name in _CENTRAL_CHARGES:
        alg = VirasoroAlgebra(_CENTRAL_CHARGES[name], cutoff=30)
        return alg, alg
    alg = heis(30)
    if name == "fock-zeta3+1/2":
        return alg, fock(alg, _ZETA3_MOMENTUM)
    return alg, alg if _MOMENTA[name] is None else fock(alg, _MOMENTA[name])


@pytest.mark.parametrize("name", [*_MOMENTA, "fock-zeta3+1/2", *_CENTRAL_CHARGES])
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


@pytest.mark.parametrize("name", ["heisenberg", "fock-zeta3+1/2", *_CENTRAL_CHARGES])
def test_creation_property(name):
    # Y(u)_{-1}|0> = u and Y(u)_n|0> = 0 for n >= 0, for every basis u of grade <= 5;
    # with a Fock module, its (cyclotomic) tables fill the algebra's cache first
    alg, module = _mode_space(name)
    if module is not alg:
        cyclotomic = 0
        for um in (m for g in range(6) for m in alg.basis(g)):
            for n in range(-1, sum(um)):
                acted = mode_action(st(alg, um), n, vac(module))
                cyclotomic += any(isinstance(c, Scalar) and c.is_cyclotomic() for c in acted.terms.values())
        assert cyclotomic > 0
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
# mode tables and vector coefficients hold plain rationals; Scalars are built
# only where a caller asks for one


def test_mode_tables_hold_plain_rationals():
    H10 = heis(10)
    T = TensorPowerAlgebra(heis(10), 2)
    spaces = [(H10, H10), (H10, fock(H10, 0)), (H10, fock(H10, rat(2, 3))), (T, T)]
    spaces += [(V, V) for V in (VirasoroAlgebra(c, cutoff=10) for c in _CENTRAL_CHARGES.values())]
    for alg, module in spaces:
        monos = [m for g in range(3) for m in alg.basis(g)]
        for um, wm in itertools.product(monos, repeat=2):
            u, w = st(alg, um), st(module, wm)
            for diff in jacobi_sweep(mode_action, u, u, w, itertools.product(range(-1, 2), repeat=3)):
                assert diff.is_zero()
    fractions = 0
    for alg in {T.base, *(alg for alg, _ in spaces)}:
        assert alg._mode_cache
        for table in alg._mode_cache.values():
            assert all(type(c) in (int, Fraction) for c in table.values()), table
            fractions += sum(type(c) is Fraction and c.denominator != 1 for c in table.values())
    assert fractions > 0  # the momentum 2/3 and both central charges reach the tables


def test_sweep_builds_no_scalar(monkeypatch):
    # the grade <= 2, |m|, |n|, |h| <= 1 sweep on a fresh Fock module built
    # 3,455 Scalars when vectors stored their coefficients as Scalars and the
    # mode-action loops unwrapped them again; now it builds none
    H24 = heis(24)
    W = fock(H24, 0)
    built = collections.Counter()
    original = Scalar.__init__

    def counted(self, *args, **kwargs):
        built["scalar"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Scalar, "__init__", counted)
    instances = list(itertools.product(range(-1, 2), repeat=3))
    swept = 0
    for gu, gv, gw in itertools.product(range(3), repeat=3):
        for um, vm, wm in itertools.product(H24.basis(gu), H24.basis(gv), W.basis(gw)):
            diffs = list(jacobi_sweep(mode_action, st(H24, um), st(H24, vm), st(W, wm), instances))
            assert all(d.is_zero() for d in diffs)
            swept += len(diffs)
    assert swept == 1728
    assert built["scalar"] == 0


# vectors, series and rational expressions store each value with one type:
# int, Fraction or cyclotomic Scalar

_COEF_SPACES = {name: _mode_space(name) for name in ("heisenberg", "fock-0", "fock-2/3", "fock-zeta3+1/2", "virasoro-1/2")}
_ZETA3 = Scalar.root_of_unity(3)
_COEF_TERMS = hst.lists(
    hst.tuples(hst.integers(0, 10**6), hst.integers(-4, 4), hst.integers(1, 3), hst.booleans()),
    min_size=1,
    max_size=4,
)


def _two_builds(space, grade, terms):
    """The same vector through ``state`` twice: with int/Fraction coefficients,
    and with rational Scalars, some of them the result of cyclotomic
    arithmetic (1 + w + w^2 = 0 for the cube root of unity w)."""
    monos = [m for g in range(grade + 1) for m in space.basis(g)]
    plain_vec, scalar_vec = GradedVector(space), GradedVector(space)
    for i, p, q, via_zeta in terms:
        mono = monos[i % len(monos)]
        plain_vec = plain_vec + st(space, mono, p if q == 1 and via_zeta else Fraction(p, q))
        coef = rat(p, q) + (1 + _ZETA3 + _ZETA3 * _ZETA3 if via_zeta else 0)
        scalar_vec = scalar_vec + st(space, mono, coef)
    return plain_vec, scalar_vec


_KINDS = ("int", "via-zeta", "cyclotomic")
_SERIES_TERMS = hst.lists(
    hst.tuples(hst.integers(-2, 4), hst.integers(-4, 4), hst.integers(1, 3), hst.sampled_from(_KINDS)),
    min_size=1,
    max_size=4,
)


def _two_values(p, q, kind):
    """p/q from int/Fraction input and from Scalar input.  An "int" value is
    an int, or an integral Fraction, on the plain side; a "via-zeta" one
    reaches p/q on the Scalar side through 1 + w + w^2 = 0; a "cyclotomic"
    one is p/q + w on both sides."""
    if kind == "cyclotomic":
        return Fraction(p, q) + _ZETA3, rat(p, q) + _ZETA3
    if kind == "via-zeta":
        return Fraction(p, q), rat(p, q) + (1 + _ZETA3 + _ZETA3 * _ZETA3)
    return (p if p % 2 else Fraction(p)) if q == 1 else Fraction(p, q), rat(p, q)


def _two_series(terms, trunc=None):
    """The same Laurent series from the two inputs of ``_two_values``."""
    builds = ({}, {})
    for e, p, q, kind in terms:
        for build, value in zip(builds, _two_values(p, q, kind)):
            build[e] = value
    return [FracLaurent("z", 1, build, trunc) for build in builds]


def _assert_stored(values, where):
    # no rational Scalar, integral Fraction, float or zero
    for c in values:
        assert (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator != 1) or (
            type(c) is Scalar and c.is_cyclotomic()
        ), (c, where)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    hst.sampled_from(sorted(_COEF_SPACES)),
    _COEF_TERMS,
    _COEF_TERMS,
    _COEF_TERMS,
    hst.integers(-3, 3),
    hst.integers(-2, 3),
    _SERIES_TERMS,
    _SERIES_TERMS,
    hst.sampled_from([None, 5]),
    hst.tuples(hst.integers(-3, 3).filter(bool), hst.integers(1, 3), hst.sampled_from(_KINDS)),
)
def test_vector_coefficients_have_one_type(name, u_terms, v_terms, w_terms, c, n, a_terms, b_terms, trunc, value):
    # vectors, Laurent series and rational expressions built from Scalars
    # and from plain values store the same values with the same types
    alg, module = _COEF_SPACES[name]
    T = TensorPowerAlgebra(alg, 2)
    vectors, series, exprs = [], [], []
    for build in range(2):
        u = _two_builds(alg, 2, u_terms)[build]
        v = _two_builds(alg, 2, v_terms)[build]
        w = _two_builds(module, 2, w_terms)[build]
        t = tensor_vector(T, [u, v])
        vectors.append([u, w, u.scale(Scalar.integer(c)), u + v, u - v, mode_action(u, n, w), t, cycle_rotate(t)])
        a, b = _two_series(a_terms, trunc)[build], _two_series(b_terms)[build]
        x = _two_values(*value)[build]
        found = [a, b, a + b, a - b, a * b, a.scale(x), a.derivative(), a.shift(Fraction(1, 2))]
        if a:
            outer = FracLaurent("z", 1, {e: y for e, y in b.terms.items() if e >= 0})
            found += [a.inverse(order=4), outer.compose(a.shift(1 - a.valuation()), 5)]
        expr = RationalExpr.term(x, zpows={0: -1}, dpows={(0, 1): -2}) + RationalExpr.term(value[0], zpows={1: 2})
        point = _two_values(1, 2, value[2])[build]
        found.append(expr.substitute({0: FracLaurent.monomial("z", 1, x), 1: point}, "z", 4))
        series.append(found)
        found = [expr, expr * expr, expr.scale(x)]
        if not name.startswith("virasoro"):  # momenta 0, 2/3 and w + 1/2
            wp = _two_builds(dual_of(module), 2, v_terms)[build]
            found.append(heisenberg_correlator([u, v], w, wp))
        exprs.append(found)
    for from_plain, from_scalars in zip(*vectors):
        _assert_stored(from_plain.terms.values(), from_plain)
        _assert_stored(from_scalars.terms.values(), from_scalars)
        assert from_plain == from_scalars
        # the twisted series caches key on these items
        assert frozenset(from_plain.terms.items()) == frozenset(from_scalars.terms.items())
    for from_plain, from_scalars in zip(*series):
        _assert_stored(from_plain.terms.values(), from_plain)
        _assert_stored(from_scalars.terms.values(), from_scalars)
        assert from_plain == from_scalars and hash(from_plain) == hash(from_scalars)
    for from_plain, from_scalars in zip(*exprs):
        _assert_stored(from_plain.terms.values(), from_plain)
        _assert_stored(from_scalars.terms.values(), from_scalars)
        assert frozenset(from_plain.terms.items()) == frozenset(from_scalars.terms.items())


def test_truncated_zero_coefficient_is_kept():
    # O(z^3) is unknown from z^3 on, not zero; only the exact zero is dropped
    o3 = FracLaurent("z", 1, {}, trunc=3)
    v = GradedVector(H, {(1,): o3, (2,): FracLaurent("z", 1, {}), (1, 1): 0})
    assert v.terms == {(1,): o3}
    assert not v.is_zero()


@pytest.mark.parametrize("momentum", [0, Fraction(2, 3)])
def test_wick_oracle_builds_no_scalar(momentum, monkeypatch):
    # this oracle call built 62 Scalars at momentum 0 and 121 at 2/3 when
    # rational expressions stored every coefficient as a Scalar; it now
    # multiplies stored values and builds none
    W = fock(H, momentum)
    vs, w, wp = [A, st(H, (2,)), A], st(W, (2, 1)), st(dual_of(W), (3,))
    built = collections.Counter()
    original = Scalar.__init__

    def counted(self, *args, **kwargs):
        built["scalar"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Scalar, "__init__", counted)
    expr = heisenberg_correlator(vs, w, wp)
    assert len(expr.terms) == 6
    assert built["scalar"] == 0


def test_api_results_are_scalars():
    W = fock(H, rat(2, 3))
    Wd = dual_of(W)
    w = st(W, (1,), 3)
    wp = st(Wd, (1,), Fraction(1, 2))
    assert type(dual_pairing(w, wp)) is Scalar and dual_pairing(w, wp) == rat(3, 2)
    assert type(dual_pairing(w, st(Wd, (2,)))) is Scalar
    assert type(w.coefficient((1,))) is Scalar and w.coefficient([1]) == rat(3)
    assert type(w.coefficient((2,))) is Scalar and w.coefficient((2,)).is_zero()
    res = propagate_eval([A, A], [rat(1, 2), rat(2)], w, wp, 12)
    assert type(res.value) is Scalar and not res.value.is_zero()
    assert all(type(s) is Scalar for _, s in res.shells)
    expansion = propagate_expand([A, A], w, wp, 6)
    assert expansion and all(type(x) is Scalar for x in expansion.values())
    s = FracLaurent("z", 1, {-1: 3, 0: Fraction(1, 2), 2: 1}, trunc=4)
    assert type(s.coeff(0)) is Scalar and s.coeff(0) == rat(1, 2)
    assert type(s.coeff(1)) is Scalar and s.coeff(1).is_zero()
    assert type(s.residue()) is Scalar and s.residue() == rat(3)
    exact = s.drop_truncation()
    assert type(exact.evaluate(2)) is Scalar and exact.evaluate(2) == rat(6)
    assert type(exact.evaluate(_ZETA3)) is Scalar and exact.evaluate(_ZETA3).is_cyclotomic()
    expr = heisenberg_correlator([A, A], w, wp)
    assert type(expr.evaluate({0: 1, 1: 2})) is Scalar and not expr.evaluate({0: 1, 1: 2}).is_zero()
    assert type(RationalExpr().evaluate({})) is Scalar


# tensor powers: the rotation and the basis check of ``state``

_TENSOR_POWERS = {k: TensorPowerAlgebra(heis(12), k) for k in (2, 3)}
_TENSOR_MONOS = {k: [m for g in range(4) for m in T.basis(g)] for k, T in _TENSOR_POWERS.items()}
_BAD_SLOTS = [(1, 2), (0,), (-1,), (1.0,), (True,), [1], 1, None]


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    hst.sampled_from([2, 3]),
    hst.lists(hst.tuples(hst.integers(0, 10**6), hst.integers(-3, 3)), min_size=1, max_size=5),
    hst.integers(0, 10**6),
    hst.integers(0, 2),
    hst.sampled_from(_BAD_SLOTS),
)
def test_tensor_power_rotation_and_basis_check(k, picks, pick, slot, bad_slot):
    T = _TENSOR_POWERS[k]
    monos = _TENSOR_MONOS[k]
    u = GradedVector(T)
    for i, c in picks:
        u = u + st(T, monos[i % len(monos)], c)
    # g keeps every weight component in its weight, and g^k = 1
    rotated = cycle_rotate(u)
    assert rotated.weight_components() == {g: cycle_rotate(part) for g, part in u.weight_components().items()}
    x = u
    for _ in range(k):
        x = cycle_rotate(x)
    assert x == u
    # state refuses a non-basis slot and a wrong number of slots
    mono = monos[pick % len(monos)]
    bad = list(mono)
    bad[slot % k] = bad_slot
    for wrong in (tuple(bad), mono[:-1], mono + ((),)):
        with pytest.raises(ValueError, match="not a basis monomial"):
            st(T, wrong)


# ---------------------------------------------------------------------------
# the mode cache is transparent: warm results equal cold ones


def _cache_spaces():
    """(algebra, module) per space of the cache test; the Heisenberg spaces
    share one algebra, so they share one mode cache."""
    H12 = heis(12)
    spaces = {name: (H12, H12 if p is None else fock(H12, p)) for name, p in _MOMENTA.items()}
    for name, c in _CENTRAL_CHARGES.items():
        V = VirasoroAlgebra(c, cutoff=12)
        spaces[name] = (V, V)
    return spaces


def _cache_query(alg, i, n, j):
    # the i-th u of grade <= 4 and the j-th w of grade <= 3 of the algebra
    us = [m for g in range(5) for m in alg.basis(g)]
    ws = [m for g in range(4) for m in alg.basis(g)]
    return us[i % len(us)], n, ws[j % len(ws)]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    hst.lists(
        hst.tuples(hst.integers(0, 99), hst.integers(-4, 3), hst.integers(0, 99)),
        min_size=1,
        max_size=6,
    ),
    hst.randoms(use_true_random=False),
)
def test_mode_cache_is_transparent(triples, rng):
    # each algebra fills its cache in a shuffled order: Heisenberg over the
    # adjoint module and Fock momenta 0 and 2/3 (a key without the module
    # mixes them up), Virasoro at c = 1/2 and c = -22/5 (L_n straightening
    # reads the cache it fills); each result must equal that of a fresh algebra
    warm = _cache_spaces()
    queries = [(triple, name) for triple in triples for name in warm]
    rng.shuffle(queries)
    for triple, name in queries:
        alg, module = warm[name]
        alg.mode_mono(*_cache_query(alg, *triple), module)
    for triple, name in queries:
        alg, module = warm[name]
        cold_alg, cold_module = _cache_spaces()[name]
        u, n, w = _cache_query(alg, *triple)
        got = alg.mode_mono(u, n, w, module)
        assert got == cold_alg.mode_mono(u, n, w, cold_module), (u, n, w, name)
        for m in got:
            module.check_mono(m)


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


# ---------------------------------------------------------------------------
# Virasoro mode tables, recorded as exact text


_VIRASORO_GOLDEN = Path(__file__).parent / "golden" / "virasoro_modes.txt"


def _terms_text(terms):
    return "; ".join(f"{list(m)}:{c}" for m, c in sorted(terms.items()))


def virasoro_mode_table() -> str:
    """Y(u)_n w for u of grade <= 6, w of grade <= 5 and n from 12 below the
    top index wt(u) + wt(w) - 1 to one above it, then L_n w for |n| <= 4, at
    c = 1/2, -22/5 and 1; one line per result.  The golden file was recorded
    with an independent L_n straightening that kept its own cache."""
    lines = []
    for c in (rat(1, 2), rat(-22, 5), rat(1)):
        V = VirasoroAlgebra(c, cutoff=20)
        ws = [m for g in range(6) for m in V.basis(g)]
        for um in (m for g in range(7) for m in V.basis(g)):
            for wm in ws:
                top = sum(um) + sum(wm) - 1
                for n in range(top - 12, top + 2):
                    lines.append(f"{c}\tY{list(um)}_{n}\t{list(wm)}\t{_terms_text(V.mode_mono(um, n, wm, V))}")
        for wm in ws:
            for n in range(-4, 5):
                lines.append(f"{c}\tL_{n}\t{list(wm)}\t{_terms_text(virasoro_mode(n, st(V, wm)).terms)}")
    return "\n".join(lines) + "\n"


def test_virasoro_modes_match_golden():
    # exact Virasoro mode tables stay byte-identical to the recorded ones
    assert virasoro_mode_table().encode() == _VIRASORO_GOLDEN.read_bytes()

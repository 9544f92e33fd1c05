import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from support import heis, rat, st
from voablocks.coordchange import (
    CoordChange,
    apply_coord_change,
    chart_transition,
    compose,
    invert,
    kth_root_shift,
    solve_coefficients,
    taylor_coefficients,
)
from voablocks.scalars import Scalar, binomial
from voablocks.series import FracLaurent
from voablocks.voa import virasoro_mode


H = heis(20)


def _random_coordchange(rng, order=9):
    c0 = Scalar.rational(rng.randint(1, 5), rng.randint(1, 4))
    cs = [Scalar.rational(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order)]
    return CoordChange(c0, cs)


def test_identity_and_dilation():
    assert solve_coefficients([1, 0, 0, 0]) == CoordChange.identity()
    rho = solve_coefficients([rat(5, 3), 0, 0])
    assert rho == CoordChange(rat(5, 3))


def test_geometric_series_is_single_flow():
    # z/(1-z) is the time-1 flow of z^2 d/dz
    rho = solve_coefficients([1] * 9)
    assert rho.c0 == Scalar.integer(1)
    assert rho.cs == (Scalar.integer(1),)
    # round trip through the flow
    assert [str(a) for a in taylor_coefficients(rho, 6)] == ["1"] * 6


def test_nonunit_derivative_rejected():
    with pytest.raises(ValueError):
        solve_coefficients([0, 1, 1])


def test_round_trip_random():
    rng = random.Random(23)
    for _ in range(100):
        rho = _random_coordchange(rng)
        back = solve_coefficients(taylor_coefficients(rho, 10))
        assert back == rho


def test_compose_examples():
    rho = solve_coefficients([1] * 8)  # z/(1-z)
    assert compose(rho, CoordChange.identity(), 8) == rho
    assert compose(CoordChange(rat(2)), CoordChange(rat(3)), 6) == CoordChange(rat(6))
    twice = compose(rho, rho, 8)  # z/(1-2z)
    assert twice.c0 == Scalar.integer(1) and twice.cs == (Scalar.integer(2),)


def test_invert_round_trip():
    rng = random.Random(4)
    for _ in range(10):
        rho = _random_coordchange(rng, order=6)
        inv = invert(rho, 8)
        assert compose(rho, inv, 8) == CoordChange.identity()


def test_series_valued_coefficients_are_refused():
    rho = kth_root_shift(2, 4)  # coefficients are Laurent monomials in s
    for f, args in ((compose, (rho, rho)), (compose, (CoordChange.identity(), rho)), (invert, (rho,))):
        with pytest.raises(ValueError, match="scalar coefficients"):
            f(*args, 4)


_small_rational = hst.builds(Scalar.rational, hst.integers(-3, 3), hst.integers(1, 3))
_coordchange = hst.builds(
    CoordChange,
    hst.builds(Scalar.rational, hst.integers(-4, 4).filter(bool), hst.integers(1, 3)),
    hst.lists(_small_rational, max_size=4),
)
_group_law_settings = settings(max_examples=60, derandomize=True, database=None, deadline=None)
_GROUP_ORDER = 6


@_group_law_settings
@given(_coordchange, _coordchange, _coordchange)
def test_compose_is_associative(r1, r2, r3):
    n = _GROUP_ORDER
    assert compose(compose(r1, r2, n), r3, n) == compose(r1, compose(r2, r3, n), n)


@_group_law_settings
@given(_coordchange)
def test_invert_is_a_two_sided_inverse(rho):
    n = _GROUP_ORDER
    inv = invert(rho, n)
    assert compose(rho, inv, n) == CoordChange.identity()
    assert compose(inv, rho, n) == CoordChange.identity()


def test_apply_identity_and_dilation():
    w = st(H, (2, 1))
    assert apply_coord_change(CoordChange.identity(), w) == w
    assert apply_coord_change(CoordChange(rat(2, 3)), w) == w.scale(rat(8, 27))


def test_apply_on_primary():
    # a is primary of weight 1: U(rho) a = rho'(0) a
    a = st(H, (1,))
    assert all(virasoro_mode(n, a).is_zero() for n in (1, 2, 3))
    rho = CoordChange(rat(5, 7), [rat(1), rat(-1, 2), rat(1, 3)])
    assert apply_coord_change(rho, a) == a.scale(rat(5, 7))


def test_homomorphism_property():
    rng = random.Random(31)
    for _ in range(25):
        r1 = _random_coordchange(rng, order=7)
        r2 = _random_coordchange(rng, order=7)
        w = st(H, rng.choice(H.basis(4)))
        lhs = apply_coord_change(compose(r1, r2, 8), w)
        rhs = apply_coord_change(r1, apply_coord_change(r2, w))
        assert (lhs - rhs).is_zero()


def test_filtration_preserved():
    # U(rho) never raises the weight
    rng = random.Random(8)
    for _ in range(20):
        rho = _random_coordchange(rng, order=6)
        g = rng.randint(0, 4)
        w = st(H, rng.choice(H.basis(g)))
        out = apply_coord_change(rho, w)
        assert out.max_weight() <= g


def test_cocycle_condition():
    rng = random.Random(12)
    for _ in range(8):
        p = rat(rng.randint(1, 3), rng.randint(2, 5))

        def poly():
            # a chart needs a nonzero derivative at the sample point
            while True:
                data = {1: rat(rng.randint(1, 3))}
                for e in range(2, 5):
                    data[e] = rat(rng.randint(-2, 2), rng.randint(1, 2))
                f = FracLaurent("zeta", 1, data)
                if not f.derivative().evaluate(p).is_zero():
                    return f

        eta, mu, nu = poly(), poly(), poly()
        order = 8
        r_em = chart_transition(eta, mu, p, order)
        r_mn = chart_transition(mu, nu, p, order)
        r_en = chart_transition(eta, nu, p, order)
        assert compose(r_em, r_mn, order) == r_en


def test_kth_root_shift_identity():
    assert kth_root_shift(1, 6) == CoordChange.identity()


def test_kth_root_shift_taylor_data():
    # k = 2: the Taylor data is (1/2)s^-1, -(1/8)s^-3, (1/16)s^-5, ...
    rho = kth_root_shift(2, 4)
    tay = taylor_coefficients(rho, 4)
    for m, a in enumerate(tay, start=1):
        expect = FracLaurent.monomial("s", 1 - 2 * m, Scalar.from_fraction(binomial(Fraction(1, 2), m)))
        assert a == expect
    # first coefficient for k = 3 is (1/3) s^-2
    rho3 = kth_root_shift(3, 4)
    assert rho3.c0 == FracLaurent.monomial("s", -2, rat(1, 3))


def test_kth_root_shift_matches_chart_transition():
    # the k-th-root shift at a numeric point is the zeta vs zeta^k transition
    for k in (2, 3):
        p = rat(2, 5)
        zk = FracLaurent("zeta", 1, {k: 1})
        z1 = FracLaurent("zeta", 1, {1: 1})
        geo = chart_transition(z1, zk, p, 6)
        direct = kth_root_shift(k, 6, p)
        assert geo == direct

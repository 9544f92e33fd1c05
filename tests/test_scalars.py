import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voablocks import scalars
from voablocks.scalars import Scalar, ScalarError, binomial, cyclotomic_polynomial


def test_root_of_unity_order():
    w4 = Scalar.root_of_unity(4)
    assert w4 * w4 * w4 * w4 == Scalar.integer(1)
    assert w4**4 == Scalar.integer(1)
    assert w4**2 == Scalar.integer(-1)


def test_rational_arithmetic():
    assert Scalar.rational(1, 3) + Scalar.rational(1, 6) == Scalar.rational(1, 2)
    assert Scalar.rational(2, 4).to_json() == {"rat": [1, 2]}


def test_minimal_polynomial_reduction():
    w3 = Scalar.root_of_unity(3)
    val = w3 + w3 * w3
    assert val == Scalar.integer(-1)
    assert abs(val.to_complex() - (-1)) < 1e-12


def test_cyclotomic_polynomials():
    assert list(cyclotomic_polynomial(1)) == [-1, 1]
    assert list(cyclotomic_polynomial(4)) == [1, 0, 1]
    assert list(cyclotomic_polynomial(3)) == [1, 1, 1]
    assert list(cyclotomic_polynomial(12)) == [1, 0, -1, 0, 1]


def test_division_and_inverse():
    w3 = Scalar.root_of_unity(3)
    x = w3 * Scalar.rational(3, 5) + Scalar.rational(1, 7)
    assert x * x.inverse() == Scalar.integer(1)
    assert (x / x) == Scalar.integer(1)
    with pytest.raises(ZeroDivisionError):
        Scalar.integer(1) / Scalar.integer(0)


def test_cross_field_mixing_raises():
    w3 = Scalar.root_of_unity(3)
    w4 = Scalar.root_of_unity(4)
    with pytest.raises(ScalarError):
        _ = w3 + w4


def test_explicit_embedding():
    w3 = Scalar.root_of_unity(3)
    w6 = Scalar.root_of_unity(6)
    lifted = w3.embed(6)
    assert lifted == w6 * w6
    assert abs(lifted.to_complex() - w3.to_complex()) < 1e-14


def test_float_agreement_on_random_expressions():
    # exact cyclotomic expressions track their float evaluations to 1e-12
    random.seed(2024)
    for k in (3, 4, 6, 12):
        w = Scalar.root_of_unity(k)
        wc = cmath.exp(-2j * math.pi / k)
        for _ in range(25):
            exact = Scalar.integer(1)
            approx = 1 + 0j
            for _ in range(6):
                p = random.randrange(k)
                c = Fraction(random.randint(-4, 4), random.randint(1, 4))
                term = w**p * Scalar.from_fraction(c) + Scalar.integer(1)
                exact = exact * term
                approx *= wc**p * complex(c) + 1
            assert abs(exact.to_complex() - approx) <= 1e-12 * max(1.0, abs(approx))


def test_powers_and_negative_powers():
    w3 = Scalar.root_of_unity(3)
    assert w3**-1 == w3**2
    assert Scalar.rational(2, 3) ** -2 == Scalar.rational(9, 4)
    for x in (Scalar.rational(-3, 7), Scalar.integer(0), Scalar.integer(2)):
        product = Scalar.integer(1)
        for n in range(6):
            assert x**n == product, (x, n)
            product = product * x
    with pytest.raises(ZeroDivisionError):
        Scalar.integer(0) ** -1


def test_hash_and_demotion():
    w2 = Scalar.root_of_unity(2)
    assert w2 == Scalar.integer(-1)
    assert hash(w2) == hash(Scalar.integer(-1))
    w4 = Scalar.root_of_unity(4)
    sq = w4 * w4
    assert not sq.is_cyclotomic()


def test_json_round_trip():
    values = [
        Scalar.rational(-7, 3),
        Scalar.root_of_unity(3) * Scalar.rational(2, 5) + Scalar.integer(1),
    ]
    for v in values:
        assert Scalar.from_json(v.to_json()) == v


@pytest.mark.parametrize(
    "obj",
    [
        {"float": [1.5, -2.0]},
        {"x": 1},
        {"rat": [1, 0]},
        {"rat": [1]},
        {"rat": ["1", 2]},
        {"rat": [1, 2], "cyc": {"k": 3, "vec": []}},
        {"cyc": {"k": 0, "vec": [[1, 1]]}},
        {"cyc": {"k": 3}},
        {"cyc": {"k": 3, "vec": [[1, 1], [2, 0]]}},
        [1, 2],
        "1/2",
    ],
)
def test_from_json_rejects_anything_but_rat_and_cyc(obj):
    with pytest.raises(ValueError):
        Scalar.from_json(obj)


def test_from_json_bounds_the_cyclotomic_order(monkeypatch):
    k = scalars.MAX_CYCLOTOMIC_ORDER
    assert Scalar.from_json({"cyc": {"k": k, "vec": [[0, 1], [1, 1]]}}) == Scalar.root_of_unity(k)

    def refuse(order):
        raise AssertionError(f"cyclotomic_polynomial({order}) called on an order above the bound")

    # the bound is checked before any cyclotomic arithmetic starts
    monkeypatch.setattr(scalars, "cyclotomic_polynomial", refuse)
    for order in (k + 1, 10**9):
        with pytest.raises(ValueError, match="exceeds the limit"):
            Scalar.from_json({"cyc": {"k": order, "vec": [[1, 1]]}})


def test_binomial():
    assert binomial(Fraction(1, 2), 0) == 1
    assert binomial(Fraction(1, 2), 1) == Fraction(1, 2)
    assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binomial(Fraction(1, 2), 3) == Fraction(1, 16)
    assert binomial(Fraction(3), 5) == 0
    assert binomial(-3, 2) == 6
    assert binomial(-1, 5) == -1
    assert binomial(2, 3) == 0
    assert binomial(5, -1) == 0
    # integer upper indices stay on the integer path
    assert type(binomial(Fraction(-4), 3)) is int
    assert type(binomial(Fraction(1, 3), 2)) is Fraction


# ---- field laws, on random elements of Q and of Q(w_k) -----------------

_coordinate = st.tuples(st.integers(-4, 4), st.integers(1, 4)).map(list)


@st.composite
def _same_field_triples(draw):
    """(k, a, b, c): three elements of Q (k = None) or of Q(w_k), given by
    small rational coordinates over 1, w, ..., w^(k-1)."""
    k = draw(st.sampled_from([None, 3, 4, 5, 8, 12]))

    def element():
        if k is None:
            return Scalar.from_json({"rat": draw(_coordinate)})
        vec = draw(st.lists(_coordinate, min_size=1, max_size=k))
        return Scalar.from_json({"cyc": {"k": k, "vec": vec}})

    return k, element(), element(), element()


_field_law_settings = settings(max_examples=300, derandomize=True, database=None, deadline=None)


@_field_law_settings
@given(_same_field_triples())
def test_field_laws(triple):
    _, a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert (a + (-a)).is_zero()
    assert a - b == a + (-b)
    if not a.is_zero():
        assert a * a.inverse() == Scalar.integer(1)


@_field_law_settings
@given(_same_field_triples())
def test_equal_values_hash_equal(triple):
    _, a, b, _ = triple
    for x, y in (((a + b) - a, b), (a * b, b * a), ((a + 1) - a, Scalar.integer(1))):
        assert x == y
        assert hash(x) == hash(y)
    # (a + 1) - a demotes to the rational 1 even when a is cyclotomic
    assert not ((a + 1) - a).is_cyclotomic()
    # a rational Scalar hashes as the int or Fraction it equals
    for x, y in ((Scalar.integer(3), 3), (Scalar.rational(1, 2), Fraction(1, 2)), (b - b, 0)):
        assert x == y and hash(x) == hash(y)
    assert len({Scalar.integer(3), 3}) == 1 and {Fraction(1, 2): 1}.get(Scalar.rational(1, 2)) == 1


@_field_law_settings
@given(_same_field_triples())
def test_embedding_and_float_value_preserve_sum_and_product(triple):
    k, a, b, _ = triple
    m = 2 * (k or 1)
    assert (a + b).embed(m) == a.embed(m) + b.embed(m)
    assert (a * b).embed(m) == a.embed(m) * b.embed(m)
    for exact, approx in ((a + b, a.to_complex() + b.to_complex()), (a * b, a.to_complex() * b.to_complex())):
        assert abs(exact.to_complex() - approx) <= 1e-9 * max(1.0, abs(approx))

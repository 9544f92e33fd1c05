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


# ---- the stored form inside a Scalar, against a Fraction-only reference ----


@pytest.mark.parametrize(
    "build",
    [
        lambda: Scalar.integer(2.5),
        lambda: Scalar.integer(True),
        lambda: Scalar.from_fraction(0.1),
        lambda: Scalar.from_fraction(False),
        lambda: Scalar._coerce(True),
        lambda: Scalar._coerce(0.5),
        lambda: Scalar.integer(1) + 0.5,
        lambda: Scalar.integer(1) * True,
    ],
)
def test_floats_and_bools_are_no_exact_scalars(build):
    with pytest.raises(TypeError):
        build()


def _ref_reduce(coords, k):
    # coordinates (Fractions, ascending) reduced mod Phi_k by long division
    phi = [Fraction(c) for c in cyclotomic_polynomial(k)]
    d = len(phi) - 1
    coords = [Fraction(c) for c in coords]
    for i in range(len(coords) - 1, d - 1, -1):
        c = coords[i]
        coords[i] = Fraction(0)
        for j in range(d):
            coords[i - d + j] -= c * phi[j]
    return coords[:d] + [Fraction(0)] * (d - len(coords))


def _ref_mul(a, b, k):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_reduce(out, k)


def _ref(x, k):
    """The Fraction coordinates of a Scalar over 1, w_k, ..., w_k^(d-1)."""
    d = len(cyclotomic_polynomial(k)) - 1
    if not x.is_cyclotomic():
        return [Fraction(x._rat)] + [Fraction(0)] * (d - 1)
    assert x._k == k
    return [Fraction(c) for c in x._vec]


def _assert_stored_form(x):
    if x.is_cyclotomic():
        assert x._rat is None
        coords = x._vec
        assert any(coords[1:])  # a purely rational vector demotes
    else:
        assert x._vec is None
        coords = (x._rat,)
        # a rational Scalar equals and hashes as the int or Fraction it holds
        r = Fraction(x._rat)
        assert x == r and hash(x) == hash(r)
        if r.denominator == 1:
            assert x == int(r) and hash(x) == hash(int(r))
    for c in coords:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (x, c)


_stored_coordinate = st.tuples(st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4])).map(list)


@st.composite
def _field_pairs(draw):
    """(k, a, b): two elements of Q (k = 1) or of Q(w_k), k in 3, 4, 5, 7,
    many of them integral or with integral coordinates."""
    k = draw(st.sampled_from([1, 3, 4, 5, 7]))

    def element():
        if k == 1:
            return Scalar.from_json({"rat": draw(_stored_coordinate)})
        vec = draw(st.lists(_stored_coordinate, min_size=1, max_size=k - 1))
        return Scalar.from_json({"cyc": {"k": k, "vec": vec}})

    return k, element(), element()


@_field_law_settings
@given(_field_pairs(), st.sampled_from([0, 1, 2, -1, Fraction(1, 2), Fraction(-4, 2)]), st.integers(-3, 3))
def test_results_keep_the_stored_form_and_match_a_fraction_reference(pair, c, e):
    k, a, b = pair
    ra, rb = _ref(a, k), _ref(b, k)
    rc = [Fraction(c)] + [Fraction(0)] * (len(ra) - 1)
    one = [Fraction(1)] + [Fraction(0)] * (len(ra) - 1)
    results = [
        (a + b, [x + y for x, y in zip(ra, rb)]),
        (a - b, [x - y for x, y in zip(ra, rb)]),
        (a * b, _ref_mul(ra, rb, k)),
        (a + c, [x + y for x, y in zip(ra, rc)]),
        (c - a, [y - x for x, y in zip(ra, rc)]),
        (a * c, _ref_mul(ra, rc, k)),
        (-a, [-x for x in ra]),
    ]
    for x, ref in results:
        _assert_stored_form(x)
        assert _ref(x, k) == ref
    power = one
    for _ in range(abs(e)):
        power = _ref_mul(power, ra, k)
    if e >= 0:
        _assert_stored_form(a**e)
        assert _ref(a**e, k) == power
    for y, ry in ((a, ra), (b, rb), (Scalar._coerce(c), rc)):
        if y.is_zero():
            continue
        inv = y.inverse()
        _assert_stored_form(inv)
        assert _ref_mul(_ref(inv, k), ry, k) == one
        for q in (a / y, 1 / y, y**-1, y**e):
            _assert_stored_form(q)
        assert _ref_mul(_ref(a / y, k), ry, k) == ra
        assert _ref(1 / y, k) == _ref(inv, k) == _ref(y**-1, k)
    if e < 0 and not a.is_zero():
        assert _ref_mul(_ref(a**e, k), power, k) == one
    # embedding into Q(w_m), m a multiple of k: w_k goes to w_m^(m/k)
    m = 2 * k if k > 1 else 4
    step = m // k if k > 1 else 0
    for y, ry in ((a, ra), (b, rb), (a * b, _ref_mul(ra, rb, k))):
        z = y.embed(m)
        _assert_stored_form(z)
        lifted = [Fraction(0)] * (step * len(ry) + 1)
        for i, coord in enumerate(ry):
            lifted[i * step] += coord
        assert _ref(z, m) == _ref_reduce(lifted, m)


@_field_law_settings
@given(_field_pairs())
def test_equal_values_hash_alike_whatever_their_route(pair):
    k, a, b = pair
    # one value reached by routes through Fractions and through ints
    for x, y in ((a * 2 / 2, a), ((a + Fraction(1, 2)) - Fraction(1, 2), a), (a * b - b * a, Scalar.integer(0))):
        _assert_stored_form(x)
        assert x == y and hash(x) == hash(y)
    if a.is_cyclotomic():
        rebuilt = Scalar.from_json({"cyc": {"k": k, "vec": [[c.numerator, c.denominator] for c in _ref(a, k)]}})
        assert rebuilt == a and hash(rebuilt) == hash(a)

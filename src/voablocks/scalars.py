"""Exact scalar tower: rationals and cyclotomic field elements.

A Scalar is one of two variants:

* rational        -- a ``fractions.Fraction`` in lowest terms,
* cyclotomic(k)   -- a vector of rationals over the power basis
                     1, w, ..., w^(d-1) of the k-th cyclotomic field,
                     where w is the primitive k-th root of unity whose
                     float value is exp(-2*pi*i/k) (clockwise convention).

Arithmetic between a rational and a cyclotomic promotes to cyclotomic;
between cyclotomics of different k it raises (use ``embed`` explicitly).
A cyclotomic result whose vector is purely rational demotes back to the
rational variant, so equality and hashing are canonical.  ``to_complex``
gives the float value of either variant.

Containers (vectors, mode tables, series, rational expressions, coordinate
changes, linear systems) keep every exact coefficient in the one form that
``stored`` decides, and code between them multiplies stored values directly;
``reciprocal`` and ``exact_pow`` keep inverses and powers of an ``int``
exact.  Scalars are built for callers, at the public boundary.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache


class ScalarError(ArithmeticError):
    pass


# Largest cyclotomic order ``Scalar.from_json`` accepts: reducing modulo the
# k-th cyclotomic polynomial costs about k^2, so unbounded input orders would
# let a config file stall the parser.
MAX_CYCLOTOMIC_ORDER = 1000


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple:
    """Coefficients (ascending, integer) of the k-th cyclotomic polynomial."""
    if k < 1:
        raise ValueError("k must be positive")
    # Phi_k = (x^k - 1) / prod_{d | k, d < k} Phi_d, by exact division.
    num = [0] * (k + 1)
    num[0] = -1
    num[k] = 1
    for d in range(1, k):
        if k % d == 0:
            num = _poly_divide_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _poly_divide_exact(num, den):
    # Integer polynomial long division, remainder must vanish.
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[-1]
        out[i] = q
        for j, dj in enumerate(den):
            num[i + j] -= q * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _field_degree(k: int) -> int:
    return len(cyclotomic_polynomial(k)) - 1


def _reduce_mod_cyclotomic(vec, k):
    """Reduce a coefficient list mod Phi_k, returning a tuple of length deg."""
    phi = cyclotomic_polynomial(k)
    d = len(phi) - 1
    vec = list(vec)
    for i in range(len(vec) - 1, d - 1, -1):
        c = vec[i]
        if c == 0:
            continue
        # x^i = x^(i-d) * (x^d - Phi_k(x)) since Phi_k is monic
        vec[i] = Fraction(0)
        for j in range(d):
            vec[i - d + j] -= c * phi[j]
    vec = vec[:d] + [Fraction(0)] * (d - len(vec))
    return tuple(Fraction(c) for c in vec)


def _poly_xgcd(a, b):
    # Extended Euclid over Q[x] for lists of Fractions (ascending).
    def deg(p):
        for i in range(len(p) - 1, -1, -1):
            if p[i] != 0:
                return i
        return -1

    def trim(p):
        return p[: deg(p) + 1] if deg(p) >= 0 else []

    def sub_scaled(p, q, c, shift):
        p = list(p) + [Fraction(0)] * max(0, deg(q) + shift + 1 - len(p))
        for i, qi in enumerate(q):
            p[i + shift] -= c * qi
        return trim(p)

    r0, r1 = trim(list(a)), trim(list(b))
    s0, s1 = [Fraction(1)], []
    while r1:
        r = list(r0)
        q = [Fraction(0)] * (deg(r0) - deg(r1) + 1) if deg(r0) >= deg(r1) else []
        while deg(r) >= deg(r1):
            c = r[deg(r)] / r1[deg(r1)]
            shift = deg(r) - deg(r1)
            q[shift] = c
            r = sub_scaled(r, r1, c, shift)
        # s_next = s0 - q s1
        s = list(s0)
        for shift, c in enumerate(q):
            if c:
                s = sub_scaled(s, s1, c, shift)
        r0, r1, s0, s1 = r1, r, s1, s
    return r0, s0  # gcd, Bezout coefficient of a


_ZERO = Fraction(0)


class Scalar:
    """Immutable exact scalar; see module docstring for the variant rules."""

    __slots__ = ("_rat", "_k", "_vec")

    def __init__(self, rat=None, k=None, vec=None):
        self._rat = rat
        self._k = k
        self._vec = vec

    # ---- constructors -------------------------------------------------

    @staticmethod
    def integer(n: int) -> "Scalar":
        return Scalar(rat=Fraction(n))

    @staticmethod
    def rational(p, q=1) -> "Scalar":
        return Scalar(rat=Fraction(p, q))

    @staticmethod
    def from_fraction(f: Fraction) -> "Scalar":
        return Scalar(rat=Fraction(f))

    @staticmethod
    def root_of_unity(k: int, power: int = 1) -> "Scalar":
        """The primitive k-th root with float value exp(-2*pi*i/k), raised to power."""
        vec = [_ZERO] * (k + 1)
        vec[power % k] = Fraction(1)
        vec = _reduce_mod_cyclotomic(vec, k)
        return Scalar._make_cyc(k, vec)

    @staticmethod
    def _make_cyc(k, vec) -> "Scalar":
        if all(c == 0 for c in vec[1:]):
            return Scalar(rat=vec[0] if vec else _ZERO)
        return Scalar(k=k, vec=tuple(vec))

    # ---- predicates ---------------------------------------------------

    def is_cyclotomic(self):
        return self._vec is not None

    def is_zero(self):
        # a zero cyclotomic vector demotes to the rational 0
        return self._rat is not None and self._rat == 0

    def __bool__(self):
        return not self.is_zero()

    # ---- coercion helpers ---------------------------------------------

    @staticmethod
    def _coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, int):
            return Scalar(rat=Fraction(x))
        if isinstance(x, Fraction):
            return Scalar(rat=x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")

    def _as_vec(self, k):
        if self._rat is not None:
            d = _field_degree(k)
            return (Fraction(self._rat),) + (_ZERO,) * (d - 1)
        if self._k != k:
            raise ScalarError(
                f"mixing cyclotomic fields k={self._k} and k={k} needs an explicit embed"
            )
        return self._vec

    def _common_field(self, other):
        """(k, self, other) as coordinate vectors of one cyclotomic field."""
        k = self._k or other._k
        return k, self._as_vec(k), other._as_vec(k)

    def to_complex(self) -> complex:
        if self._rat is not None:
            return complex(self._rat)
        w = cmath.exp(-2j * math.pi / self._k)
        return sum(complex(c) * w**i for i, c in enumerate(self._vec))

    __complex__ = to_complex

    def embed(self, k: int) -> "Scalar":
        """Embed a rational, or a cyclotomic of order dividing k, into Q(w_k)."""
        if self._rat is not None:
            return Scalar._make_cyc(k, self._as_vec(k))
        if k == self._k:
            return self
        if k % self._k != 0:
            raise ScalarError(f"no canonical embedding of k={self._k} into k={k}")
        m = k // self._k
        vec = [_ZERO] * (_field_degree(self._k) * m + 1)
        out = [_ZERO] * (len(vec) + k)
        for i, c in enumerate(self._vec):
            out[i * m] += c
        return Scalar._make_cyc(k, _reduce_mod_cyclotomic(out, k))

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other):
        try:
            other = Scalar._coerce(other)
        except TypeError:
            return NotImplemented
        if self._rat is not None and other._rat is not None:
            return Scalar(rat=self._rat + other._rat)
        k, a, b = self._common_field(other)
        return Scalar._make_cyc(k, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = Scalar._coerce(other)
        except TypeError:
            return NotImplemented
        if self._rat is not None and other._rat is not None:
            return Scalar(rat=self._rat - other._rat)
        k, a, b = self._common_field(other)
        return Scalar._make_cyc(k, tuple(x - y for x, y in zip(a, b)))

    def __rsub__(self, other):
        return Scalar._coerce(other).__sub__(self)

    def __mul__(self, other):
        try:
            other = Scalar._coerce(other)
        except TypeError:
            return NotImplemented
        if self._rat is not None and other._rat is not None:
            return Scalar(rat=self._rat * other._rat)
        k, a, b = self._common_field(other)
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
        return Scalar._make_cyc(k, _reduce_mod_cyclotomic(out, k))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if self._rat is not None:
            return Scalar(rat=1 / self._rat)
        phi = [Fraction(c) for c in cyclotomic_polynomial(self._k)]
        g, s = _poly_xgcd(list(self._vec), phi)
        # gcd is a nonzero constant since Phi_k is irreducible
        c = g[0]
        inv = [x / c for x in s]
        return Scalar._make_cyc(self._k, _reduce_mod_cyclotomic(inv, self._k))

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other._rat is not None:
            if other._rat == 0:
                raise ZeroDivisionError("scalar division by zero")
            return self * Scalar(rat=1 / other._rat)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Scalar._coerce(other).__truediv__(self)

    def __neg__(self):
        if self._rat is not None:
            return Scalar(rat=-self._rat)
        return Scalar(k=self._k, vec=tuple(-c for c in self._vec))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("scalar powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        if self._rat is not None:
            return Scalar(rat=self._rat**n)
        result = Scalar.integer(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        try:
            other = Scalar._coerce(other)
        except TypeError:
            return NotImplemented
        if self._rat is not None and other._rat is not None:
            return self._rat == other._rat
        return self._k == other._k and self._vec == other._vec

    def __hash__(self):
        if self._rat is not None:  # equal to the int or Fraction it equals
            return hash(self._rat)
        return hash(("cyc", self._k, self._vec))

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        if self._rat is not None:
            return str(self._rat)
        return "[" + ", ".join(str(c) for c in self._vec) + f"]@w{self._k}"

    # ---- serialization -------------------------------------------------

    def to_json(self):
        if self._rat is not None:
            return {"rat": [self._rat.numerator, self._rat.denominator]}
        return {
            "cyc": {
                "k": self._k,
                "vec": [[c.numerator, c.denominator] for c in self._vec],
            }
        }

    @staticmethod
    def from_json(obj) -> "Scalar":
        """Parse {"rat": [p, q]} or {"cyc": {"k": k, "vec": [[p, q], ...]}}
        with integer p, q and 1 <= k <= MAX_CYCLOTOMIC_ORDER; anything else
        raises ValueError."""
        cyc = obj.get("cyc") if isinstance(obj, dict) else None
        if isinstance(cyc, dict) and type(cyc.get("k")) is int and cyc["k"] > MAX_CYCLOTOMIC_ORDER:
            raise ValueError(f"cyclotomic order k={cyc['k']} exceeds the limit {MAX_CYCLOTOMIC_ORDER}")
        try:
            [(kind, data)] = obj.items()
            if kind == "rat":
                return Scalar(rat=_json_fraction(data))
            if kind == "cyc" and type(data["k"]) is int and data["k"] >= 1:
                vec = [_json_fraction(c) for c in data["vec"]]
                return Scalar._make_cyc(data["k"], _reduce_mod_cyclotomic(vec, data["k"]))
        except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError):
            pass
        raise ValueError(f"not an exact rat or cyc scalar: {obj!r}")


def _json_fraction(pair) -> Fraction:
    p, q = pair
    if not (type(p) is int and type(q) is int):  # a JSON true or false is no integer
        raise TypeError("rational coordinates must be integer pairs")
    return Fraction(p, q)


def stored(c):
    """The stored form of an exact coefficient: an ``int`` when integral, a
    ``Fraction`` when rational, a Scalar only when cyclotomic, so each value
    has one type and one hash, and a stored value is zero exactly when it is
    falsy.  A FracLaurent (a formal parameter riding along) passes unchanged;
    anything else raises TypeError."""
    t = type(c)
    if t is int:
        return c
    if t is Scalar:
        if c._rat is None:
            return c
        c = c._rat
    elif t is not Fraction:
        from .series import FracLaurent  # imported here: series imports this module

        if isinstance(c, FracLaurent):
            return c
        raise TypeError(f"cannot store {t.__name__} as an exact coefficient")
    return c.numerator if c.denominator == 1 else c


def reciprocal(c):
    """1/c of a stored value, stored: a rational through Fraction (int / int
    is a float), a cyclotomic Scalar or a series by its own inverse."""
    if type(c) is int or type(c) is Fraction:
        return stored(Fraction(1) / c)
    return c.inverse()


def exact_pow(x, e: int):
    """x**e of a stored value for any integer e, stored (int ** -1 is a float)."""
    return stored(Fraction(x) ** e if type(x) is int else x**e)


@lru_cache(maxsize=None)
def binomial(r, m: int):
    """Generalized binomial coefficient C(r, m), and 0 for m < 0.  An integer
    r (an int, or a Fraction with denominator 1) gives an int, any other
    rational r a Fraction.  Memoized: sweeps ask for the same few values often."""
    if m < 0:
        return 0
    if r.denominator == 1:
        r = int(r)
        if r >= 0:
            return math.comb(r, m)
        return (-1) ** m * math.comb(m - r - 1, m)
    out = Fraction(1)
    for i in range(m):
        out *= r - i
    return out / math.factorial(m)

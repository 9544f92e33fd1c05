"""Formal Laurent series with exponents on a fractional lattice (1/k)Z.

A FracLaurent stores finitely many terms ``exponent -> coefficient``: every
exponent is an exact rational whose denominator divides the lattice constant
``k``, every coefficient a value in the form ``scalars.stored`` gives (an
``int``, ``Fraction`` or cyclotomic Scalar); ``coeff``, ``residue`` and
``evaluate`` hand out Scalars.  An optional truncation order marks the first
unknown exponent: terms at exponents >= trunc are not stored and must not be
asked for.  Operations propagate the tightest truncation they can justify and
raise TruncationError rather than silently zero-filling.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, binomial, exact_pow, reciprocal, stored


class TruncationError(ArithmeticError):
    pass


def _lcm(a: int, b: int) -> int:
    from math import gcd

    return a * b // gcd(a, b)


def _lower_bound(s):
    # Lowest exponent s may hold: its valuation, or for a truncated zero its
    # trunc, where its unknown terms start; None for the exact zero.
    return min(s.terms) if s.terms else s.trunc


class FracLaurent:
    __slots__ = ("var", "k", "terms", "trunc")

    def __init__(self, var: str, k: int = 1, terms=None, trunc=None):
        if k < 1:
            raise ValueError("lattice denominator must be positive")
        self.var = var
        self.k = k
        self.trunc = Fraction(trunc) if trunc is not None else None
        clean = {}
        for e, c in (terms or {}).items():
            e = Fraction(e)
            if e.denominator != 1 and k % e.denominator != 0:
                raise ValueError(f"exponent {e} not on the (1/{k})Z lattice")
            if self.trunc is not None and e >= self.trunc:
                continue
            c = stored(c)
            if c:
                clean[e] = c
        self.terms = clean

    # ---- constructors --------------------------------------------------

    @staticmethod
    def zero(var: str, k: int = 1, trunc=None) -> "FracLaurent":
        return FracLaurent(var, k, {}, trunc)

    @staticmethod
    def one(var: str, k: int = 1) -> "FracLaurent":
        return FracLaurent(var, k, {Fraction(0): 1})

    @staticmethod
    def monomial(var: str, exp, coef=1, k: int = None) -> "FracLaurent":
        exp = Fraction(exp)
        if k is None:
            k = exp.denominator
        return FracLaurent(var, k, {exp: coef})

    @staticmethod
    def variable(var: str, k: int = 1) -> "FracLaurent":
        return FracLaurent.monomial(var, 1, 1, k)

    # ---- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def valuation(self):
        """Lowest stored exponent; None for the (exact) zero series."""
        return min(self.terms) if self.terms else None

    def degree(self):
        return max(self.terms) if self.terms else None

    def coeff(self, exp) -> Scalar:
        return Scalar._coerce(self.stored_coeff(exp))

    def stored_coeff(self, exp):
        """The coefficient at x^exp as stored (0 where none is)."""
        exp = Fraction(exp)
        if self.trunc is not None and exp >= self.trunc:
            raise TruncationError(
                f"coefficient at {self.var}^{exp} is beyond truncation order {self.trunc}"
            )
        return self.terms.get(exp, 0)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, FracLaurent):
            return NotImplemented
        return self.var == other.var and self.terms == other.terms and self.trunc == other.trunc

    def __hash__(self):
        return hash((self.var, self.trunc, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            body = " + ".join(f"({c})*{self.var}^{e}" for e, c in self.sorted_terms())
        tail = f" + O({self.var}^{self.trunc})" if self.trunc is not None else ""
        return body + tail

    # ---- ring operations -------------------------------------------------

    def _check_var(self, other):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def _join(self, other):
        return _lcm(self.k, other.k)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = FracLaurent(self.var, 1, {Fraction(0): other})
        if not isinstance(other, FracLaurent):
            return NotImplemented
        self._check_var(other)
        trunc = self.trunc
        if other.trunc is not None:
            trunc = other.trunc if trunc is None else min(trunc, other.trunc)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return FracLaurent(self.var, self._join(other), terms, trunc)

    __radd__ = __add__

    def __neg__(self):
        return FracLaurent(self.var, self.k, {e: -c for e, c in self.terms.items()}, self.trunc)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Scalar, FracLaurent)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "FracLaurent":
        c = stored(c)
        if not c:
            return FracLaurent(self.var, self.k, {}, self.trunc)
        return FracLaurent(self.var, self.k, {e: x * c for e, x in self.terms.items()}, self.trunc)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, FracLaurent):
            return NotImplemented
        self._check_var(other)
        # Truncation of a Cauchy product: unknown terms of one factor shift by
        # the lower bound of the other.  An exact zero factor makes it exact.
        cands = [a.trunc + _lower_bound(b) for a, b in ((self, other), (other, self))
                 if a.trunc is not None and _lower_bound(b) is not None]
        trunc = min(cands) if cands else None
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if trunc is not None and e >= trunc:
                    continue
                prod = c1 * c2
                terms[e] = terms[e] + prod if e in terms else prod
        return FracLaurent(self.var, self._join(other), terms, trunc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FracLaurent":
        if not isinstance(n, int):
            raise TypeError("series powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        result = FracLaurent.one(self.var, self.k)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self, order=None) -> "FracLaurent":
        """Multiplicative inverse as a series ascending from -valuation.

        Exact (no truncation) when self is an exact monomial; otherwise the
        geometric series of ``binomial_expand`` with r = -1, known to the
        relative order ``order`` (the number of correct terms counted from
        the leading one) and to no more than self.trunc justifies.
        """
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("inverting the zero series")
        linv = reciprocal(self.terms[v])
        lead = FracLaurent(self.var, self.k, {-v: linv})
        if self.trunc is None:
            if len(self.terms) == 1:
                return lead
            if order is None:
                raise TruncationError("inverse of a non-monomial series needs an order")
        elif order is None:
            order = self.trunc - v
        # self = (1 + u) / lead
        u = FracLaurent(
            self.var,
            self.k,
            {e - v: c * linv for e, c in self.terms.items() if e != v},
            None if self.trunc is None else self.trunc - v,
        )
        return binomial_expand(lead, u, -1, order)

    def truncate(self, order) -> "FracLaurent":
        order = Fraction(order)
        trunc = order if self.trunc is None else min(self.trunc, order)
        return FracLaurent(self.var, self.k, {e: c for e, c in self.terms.items() if e < trunc}, trunc)

    def drop_truncation(self) -> "FracLaurent":
        """Assert exactness: reinterpret a truncated value as exact."""
        return FracLaurent(self.var, self.k, dict(self.terms), None)

    def shift(self, exp) -> "FracLaurent":
        exp = Fraction(exp)
        return FracLaurent(
            self.var,
            _lcm(self.k, exp.denominator),
            {e + exp: c for e, c in self.terms.items()},
            None if self.trunc is None else self.trunc + exp,
        )

    def rename(self, var: str) -> "FracLaurent":
        return FracLaurent(var, self.k, dict(self.terms), self.trunc)

    # ---- calculus-flavored operations -------------------------------------

    def residue(self) -> Scalar:
        """Coefficient of x^-1, the residue of self dx."""
        if self.trunc is not None and self.trunc <= -1:
            raise TruncationError("residue lies beyond the truncation order")
        return Scalar._coerce(self.terms.get(Fraction(-1), 0))

    def derivative(self) -> "FracLaurent":
        return FracLaurent(
            self.var,
            self.k,
            {e - 1: c * e for e, c in self.terms.items() if e != 0},
            None if self.trunc is None else self.trunc - 1,
        )

    def compose(self, inner: "FracLaurent", order) -> "FracLaurent":
        """self(inner), truncated at the given order.

        Requires inner to vanish at 0 (valuation >= lattice step > 0) and self
        to be a power series (no negative exponents).
        """
        order = Fraction(order)
        iv = inner.valuation()
        if inner.terms and iv <= 0:
            raise ValueError("inner series must have positive valuation")
        if self.terms and self.valuation() < 0:
            raise ValueError("outer series must have no negative exponents")
        if self.trunc is not None and inner.terms:
            order = min(order, self.trunc * iv)
        if inner.trunc is not None:
            order = min(order, inner.trunc)
        out = FracLaurent.zero(inner.var, inner.k)
        power = FracLaurent.one(inner.var, inner.k)
        prev = Fraction(0)
        for e, c in self.sorted_terms():
            if e.denominator != 1:
                raise ValueError("outer series must live on the integer lattice")
            if inner.is_zero():
                if e == 0:
                    out = out + FracLaurent(inner.var, inner.k, {Fraction(0): c})
                continue
            if e * iv >= order:
                break
            for _ in range(int(e - prev)):
                power = (power * inner).truncate(order)
            prev = e
            out = out + power.scale(c)
        return out.truncate(order)

    def reverse(self, order: int) -> "FracLaurent":
        """Compositional inverse g with self(g(x)) = x, to the given order."""
        a1 = self.stored_coeff(1)
        if not a1:
            raise ValueError("compositional inverse needs a nonzero linear term")
        if self.terms and self.valuation() < 1:
            raise ValueError("compositional inverse needs valuation 1")
        a1_inv = reciprocal(a1)
        g = FracLaurent(self.var, self.k, {Fraction(1): a1_inv})
        for m in range(2, order + 1):
            err = self.compose(g, m + 1).stored_coeff(m)
            if err:
                g = g + FracLaurent(self.var, self.k, {Fraction(m): -(err * a1_inv)})
        return g

    # ---- evaluation and expansion helpers ---------------------------------

    def evaluate(self, x) -> Scalar:
        """Exact evaluation; refuses truncated series (sum their terms explicitly)."""
        if self.trunc is not None:
            raise TruncationError("evaluate called on a truncated series")
        x = stored(x)
        total = 0
        for e, c in self.terms.items():
            if e.denominator != 1:
                raise ValueError("cannot evaluate fractional exponents without a branch")
            total = total + c * exact_pow(x, int(e))
        return Scalar._coerce(total)

    def to_json(self):
        return {
            "var": self.var,
            "k": self.k,
            "terms": [
                [e.numerator, e.denominator, Scalar._coerce(c).to_json()] for e, c in self.sorted_terms()
            ],
            "trunc": None
            if self.trunc is None
            else [self.trunc.numerator, self.trunc.denominator],
        }

    @staticmethod
    def from_json(obj) -> "FracLaurent":
        terms = {Fraction(p, q): Scalar.from_json(c) for p, q, c in obj["terms"]}
        trunc = obj.get("trunc")
        return FracLaurent(
            obj["var"], obj["k"], terms, None if trunc is None else Fraction(*trunc)
        )


def binomial_expand(lead_pow, rel: FracLaurent, r: Fraction, order) -> "FracLaurent":
    """(c + u)^r expanded as lead_pow * sum C(r, m) (u/c)^m for valuation(u) > 0.

    ``rel`` must already be u/c (the caller divides by the leading term) and
    ``lead_pow`` must be the exact value of c^r (a scalar or monomial series).
    The sum is the binomial series composed with ``rel``, so it is known to
    relative order ``order`` and to no more than rel.trunc justifies.
    """
    step = rel.valuation()
    # C(r, m) for every m with m * step < order, the only terms compose reads
    n = max(-(-order // step), 1) if step else 1
    series = FracLaurent(rel.var, 1, {m: binomial(r, m) for m in range(n)}, n)
    out = series.compose(rel, order)
    if isinstance(lead_pow, FracLaurent):
        if lead_pow.var != rel.var:
            raise ValueError("leading factor must share the expansion variable")
        return out * lead_pow
    return out.scale(lead_pow)

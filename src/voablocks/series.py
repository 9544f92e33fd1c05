"""Formal Laurent series in one variable with integer exponents.

A FracLaurent stores finitely many terms ``exponent -> coefficient``: every
exponent is an ``int``, every coefficient a value in the form
``scalars.stored`` gives (an ``int``, ``Fraction`` or cyclotomic Scalar);
``coeff``, ``residue`` and ``evaluate`` hand out Scalars.  Fractional powers
z^(n/k) are written as integer powers of the k-th root variable t = z^(1/k)
by their callers.  An optional truncation order, an ``int``, marks the first
unknown exponent: terms at exponents >= trunc are not stored and must not be
asked for.  Operations propagate the tightest truncation they can justify and
raise TruncationError rather than silently zero-filling.  An exponent or
truncation order of any other type (a ``Fraction``, a float, a bool) raises
TypeError.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, binomial, exact_pow, reciprocal, stored


class TruncationError(ArithmeticError):
    pass


def _lower_bound(s):
    # Lowest exponent s may hold: its valuation, or for a truncated zero its
    # trunc, where its unknown terms start; None for the exact zero.
    return min(s.terms) if s.terms else s.trunc


class FracLaurent:
    __slots__ = ("var", "terms", "trunc")

    def __init__(self, var: str, terms=None, trunc=None):
        if trunc is not None and type(trunc) is not int:
            raise TypeError(f"truncation order must be an int, not {trunc!r}")
        self.var = var
        self.trunc = trunc
        clean = {}
        for e, c in (terms or {}).items():
            if type(e) is not int:
                raise TypeError(f"exponent must be an int, not {e!r}")
            if trunc is not None and e >= trunc:
                continue
            c = stored(c)
            if c:
                clean[e] = c
        self.terms = clean

    # ---- constructors --------------------------------------------------

    @staticmethod
    def zero(var: str, trunc=None) -> "FracLaurent":
        return FracLaurent(var, {}, trunc)

    @staticmethod
    def one(var: str) -> "FracLaurent":
        return FracLaurent(var, {0: 1})

    @staticmethod
    def monomial(var: str, exp: int, coef=1) -> "FracLaurent":
        return FracLaurent(var, {exp: coef})

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

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = FracLaurent(self.var, {0: other})
        if not isinstance(other, FracLaurent):
            return NotImplemented
        self._check_var(other)
        trunc = self.trunc
        if other.trunc is not None:
            trunc = other.trunc if trunc is None else min(trunc, other.trunc)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return FracLaurent(self.var, terms, trunc)

    __radd__ = __add__

    def __neg__(self):
        return FracLaurent(self.var, {e: -c for e, c in self.terms.items()}, self.trunc)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Scalar, FracLaurent)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "FracLaurent":
        c = stored(c)
        if not c:
            return FracLaurent(self.var, {}, self.trunc)
        return FracLaurent(self.var, {e: x * c for e, x in self.terms.items()}, self.trunc)

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
        return FracLaurent(self.var, terms, trunc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FracLaurent":
        if not isinstance(n, int):
            raise TypeError("series powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        result = FracLaurent.one(self.var)
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
        lead = FracLaurent(self.var, {-v: linv})
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
            {e - v: c * linv for e, c in self.terms.items() if e != v},
            None if self.trunc is None else self.trunc - v,
        )
        return binomial_expand(lead, u, -1, order)

    def truncate(self, order: int) -> "FracLaurent":
        trunc = order if self.trunc is None else min(self.trunc, order)
        return FracLaurent(self.var, {e: c for e, c in self.terms.items() if e < trunc}, trunc)

    def drop_truncation(self) -> "FracLaurent":
        """Assert exactness: reinterpret a truncated value as exact."""
        return FracLaurent(self.var, dict(self.terms), None)

    def shift(self, exp: int) -> "FracLaurent":
        return FracLaurent(
            self.var,
            {e + exp: c for e, c in self.terms.items()},
            None if self.trunc is None else self.trunc + exp,
        )

    def rename(self, var: str) -> "FracLaurent":
        return FracLaurent(var, dict(self.terms), self.trunc)

    # ---- calculus-flavored operations -------------------------------------

    def residue(self) -> Scalar:
        """Coefficient of x^-1, the residue of self dx."""
        if self.trunc is not None and self.trunc <= -1:
            raise TruncationError("residue lies beyond the truncation order")
        return Scalar._coerce(self.terms.get(-1, 0))

    def compose(self, inner: "FracLaurent", order) -> "FracLaurent":
        """self(inner), truncated at the given order.

        Requires inner to vanish at 0 (valuation > 0) and self to be a power
        series (no negative exponents).
        """
        iv = inner.valuation()
        if inner.terms and iv <= 0:
            raise ValueError("inner series must have positive valuation")
        if self.terms and self.valuation() < 0:
            raise ValueError("outer series must have no negative exponents")
        if self.trunc is not None and inner.terms:
            order = min(order, self.trunc * iv)
        if inner.trunc is not None:
            order = min(order, inner.trunc)
        out = FracLaurent.zero(inner.var)
        power = FracLaurent.one(inner.var)
        prev = 0
        for e, c in self.sorted_terms():
            if inner.is_zero():
                if e == 0:
                    out = out + FracLaurent(inner.var, {0: c})
                continue
            if e * iv >= order:
                break
            for _ in range(e - prev):
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
        g = FracLaurent(self.var, {1: a1_inv})
        for m in range(2, order + 1):
            err = self.compose(g, m + 1).stored_coeff(m)
            if err:
                g = g + FracLaurent(self.var, {m: -(err * a1_inv)})
        return g

    # ---- evaluation and expansion helpers ---------------------------------

    def evaluate(self, x) -> Scalar:
        """Exact evaluation; refuses truncated series (sum their terms explicitly)."""
        if self.trunc is not None:
            raise TruncationError("evaluate called on a truncated series")
        x = stored(x)
        total = 0
        for e, c in self.terms.items():
            total = total + c * exact_pow(x, e)
        return Scalar._coerce(total)


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
    series = FracLaurent(rel.var, {m: binomial(r, m) for m in range(n)}, n)
    out = series.compose(rel, order)
    if isinstance(lead_pow, FracLaurent):
        if lead_pow.var != rel.var:
            raise ValueError("leading factor must share the expansion variable")
        return out * lead_pow
    return out.scale(lead_pow)

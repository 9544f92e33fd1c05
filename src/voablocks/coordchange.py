"""Local coordinate transformations and their action on graded vectors.

A CoordChange holds the data (c0, c1, c2, ...) of a transformation

    rho(z) = c0 * exp( sum_{n>0} c_n z^{n+1} d/dz ) z,      c0 = rho'(0) != 0,

truncated at a working order M (coefficients beyond M are implicitly zero up
to that order).  Its action on a graded vector is

    c0^{L0} * exp( sum_{n>0} c_n L_n ),

a finite sum on each homogeneous piece because L_n strictly lowers weight.
Coefficients are stored values (``scalars.stored``) or formal Laurent
monomials/series in an auxiliary parameter (as needed by the k-th-root chart
changes), in which case c0 must stay invertible in that ring.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import binomial, exact_pow, reciprocal, stored
from .series import FracLaurent
from .voa import GradedVector, virasoro_mode


class CoordChange:
    __slots__ = ("c0", "cs")

    def __init__(self, c0, cs=()):
        c0 = stored(c0)
        if not c0:
            raise ValueError("c0 = rho'(0) must be nonzero")
        self.c0 = c0
        cs = [stored(c) for c in cs]
        while cs and not cs[-1]:
            cs.pop()
        self.cs = tuple(cs)

    @staticmethod
    def identity() -> "CoordChange":
        return CoordChange(1)

    def coefficient(self, n: int):
        if n == 0:
            return self.c0
        return self.cs[n - 1] if n - 1 < len(self.cs) else 0

    def __eq__(self, other):
        if not isinstance(other, CoordChange):
            return NotImplemented
        return self.c0 == other.c0 and self.cs == other.cs

    def __repr__(self):
        return f"CoordChange(c0={self.c0}, cs={list(self.cs)})"


# ---------------------------------------------------------------------------
# the exponential flow and its inversion


def _flow_derivation(cs, poly):
    # D = sum_n c_n z^{n+1} d/dz applied to a z-polynomial {deg: coef}
    out = {}
    for m, coef in poly.items():
        for n, cn in enumerate(cs, start=1):
            if not cn:
                continue
            d = m + n
            term = cn * coef * m
            if d in out:
                out[d] = out[d] + term
            else:
                out[d] = term
    return out


def taylor_coefficients(rho: CoordChange, order: int):
    """Taylor coefficients [a1, ..., a_order] of rho(z) around 0."""
    poly = {1: 1}
    total = {1: 1}
    j = 1
    while poly:
        poly = _flow_derivation(rho.cs, poly)
        inv = Fraction(1, j)
        poly = {m: c * inv for m, c in poly.items() if m <= order}
        for m, c in poly.items():
            total[m] = total[m] + c if m in total else c
        j += 1
    return [stored(rho.c0 * total.get(m, 0)) for m in range(1, order + 1)]


def solve_coefficients(taylor) -> CoordChange:
    """Recover (c0, c1, ...) from Taylor data [a1, a2, ...] with a1 != 0.

    Order-by-order elimination: at order z^{n+1} the unknown c_n enters
    linearly with coefficient c0, all lower orders being already matched.
    """
    taylor = [stored(a) for a in taylor]
    if not taylor or not taylor[0]:
        raise ValueError("a1 = rho'(0) must be nonzero; not a coordinate")
    c0 = taylor[0]
    c0_inv = reciprocal(c0)
    cs = []
    for n in range(1, len(taylor)):
        approx = taylor_coefficients(CoordChange(c0, cs + [0]), n + 1)
        cs.append((taylor[n] - approx[n]) * c0_inv)
    return CoordChange(c0, cs)


def _taylor_series(rho: CoordChange, order: int) -> FracLaurent:
    """rho(z) as a power series in z, truncated above z^order."""
    t = taylor_coefficients(rho, order)
    if any(isinstance(a, FracLaurent) for a in t):
        raise ValueError("composition and inversion are implemented for scalar coefficients")
    return FracLaurent("z", 1, {Fraction(m): a for m, a in enumerate(t, start=1)}, trunc=order + 1)


def _from_series(f: FracLaurent, order: int) -> CoordChange:
    return solve_coefficients([f.coeff(m) for m in range(1, order + 1)])


def compose(rho1: CoordChange, rho2: CoordChange, order: int) -> CoordChange:
    """Coefficients of z -> rho1(rho2(z)) to the given order; scalar
    coefficients only."""
    return _from_series(_taylor_series(rho1, order).compose(_taylor_series(rho2, order), order + 1), order)


def invert(rho: CoordChange, order: int) -> CoordChange:
    """The compositional inverse to the given order; scalar coefficients only."""
    return _from_series(_taylor_series(rho, order).reverse(order), order)


# ---------------------------------------------------------------------------
# geometric constructors


def chart_transition(eta: FracLaurent, mu: FracLaurent, p, order: int) -> CoordChange:
    """The transformation carrying the local coordinate mu - mu(p) to
    eta - eta(p) at the point p, i.e. the unique rho with
    eta - eta(p) = rho(mu - mu(p)) near p.
    """
    p = stored(p)

    def local(f):
        # f(p + t) - f(p) as a series in t
        shifted = {}
        for e, c in f.terms.items():
            if e.denominator != 1 or e < 0:
                raise ValueError("chart functions must be polynomials")
            for m in range(1, int(e) + 1):
                term = c * binomial(e, m) * p ** (int(e) - m)
                shifted[Fraction(m)] = shifted.get(Fraction(m), 0) + term
        return FracLaurent("t", 1, shifted)

    te = local(eta).truncate(order + 1)
    tm = local(mu).truncate(order + 1)
    inv = tm.drop_truncation().reverse(order)
    return _from_series(te.compose(inv, order + 1), order)


def kth_root_shift(k: int, order: int, s="s") -> CoordChange:
    """The chart change from (zeta^k - p^k) to (zeta - p) at a point p with
    p = s: the transformation t -> (s^k + t)^(1/k) - s, whose Taylor
    coefficient at t^m is C(1/k, m) s^(1-mk).

    ``s`` may be a variable name (giving exact Laurent-monomial coefficients)
    or an explicit scalar or FracLaurent value of the point.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    base = FracLaurent.variable(s) if isinstance(s, str) else stored(s)
    taylor = []
    for m in range(1, order + 1):
        coef = exact_pow(base, 1 - m * k) * binomial(Fraction(1, k), m)
        if isinstance(coef, FracLaurent) and set(coef.terms) <= {Fraction(0)} and coef.trunc is None:
            coef = coef.terms.get(Fraction(0), 0)  # k = 1: the exponent drops out
        taylor.append(coef)
    return solve_coefficients(taylor)


# ---------------------------------------------------------------------------
# the module action


def apply_coord_change(rho: CoordChange, w: GradedVector) -> GradedVector:
    """rho'(0)^{L0} exp(sum_{n>0} c_n L_n) applied to a graded vector."""
    total = GradedVector(w.space)
    for h, part in w.weight_components().items():
        # exp part: L_n lowers weight by n, so at most h applications act
        acc = part
        summand = part
        j = 1
        while not summand.is_zero():
            step = GradedVector(w.space)
            for n, cn in enumerate(rho.cs, start=1):
                if not cn:
                    continue
                ln = virasoro_mode(n, summand)
                if not ln.is_zero():
                    step = step + ln.scale(cn)
            summand = step.scale(Fraction(1, j))
            acc = acc + summand
            j += 1
        # c0^{L0}: scale each homogeneous output piece by c0^weight
        for hw, piece in acc.weight_components().items():
            total = total + piece.scale(rho.c0**hw)
    return total

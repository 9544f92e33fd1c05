"""Graded vertex algebras and modules with exact mode actions.

Provided algebras:

* Heisenberg (rank-1 free boson), basis monomials are partitions
  (n1 >= ... >= nm >= 1) standing for a_{-n1} ... a_{-nm} |0>;
* Virasoro at exact central charge, the universal vacuum module, basis
  partitions with parts >= 2 standing for L_{-n1} ... L_{-nm} |0>;
* tensor powers of a base algebra with the cyclic rotation automorphism.

Modules: the algebra itself (adjoint), Heisenberg Fock modules with a scalar
zero-mode momentum, and graded duals paired basis-to-dual-basis.

General modes Y(u)_n are reconstructed recursively from the generator field
through the standard iterate identity

    Y(Y(g)_p v)_n = sum_l (-1)^l C(p,l) [ Y(g)_{p-l} Y(v)_{n+l}
                                          - (-1)^p Y(v)_{p+n-l} Y(g)_l ],

so no structure-constant tables are stored.  The recursion stops at the
generator descendants u = Y(g)_{-j-1}|0>, whose modes have the closed form
of the creation and translation properties,

    Y(Y(g)_{-j-1}|0>)_n = (-1)^j C(n, j) Y(g)_{n-j},

and at the vacuum, Y(|0>)_n = delta_{n,-1}.  All values are immutable and the
mode cache is only ever filled with deterministic pure results.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .scalars import Scalar, binomial

S0 = Scalar.integer(0)
S1 = Scalar.integer(1)


class CutoffOverflow(Exception):
    """A result would live above the hard weight wall of the algebra."""

    def __init__(self, weight, cutoff):
        super().__init__(f"weight {weight} exceeds cutoff {cutoff}")
        self.weight = weight
        self.cutoff = cutoff


@lru_cache(maxsize=None)
def partitions(n: int, min_part: int = 1, max_part: int = None) -> tuple:
    """All descending partitions of n with parts in [min_part, max_part]."""
    if n == 0:
        return ((),)
    if n < min_part:
        return ()
    top = n if max_part is None else min(n, max_part)
    out = []
    for first in range(top, min_part - 1, -1):
        for rest in partitions(n - first, min_part, first):
            out.append((first,) + rest)
    return tuple(out)


def _acc(d, mono, coef):
    if mono in d:
        d[mono] = d[mono] + coef
    else:
        d[mono] = coef


def _check_partition(mono, min_part: int):
    # basis monomials of the partition-labelled spaces: n1 >= ... >= nm >= min_part
    if not (
        all(type(p) is int and p >= min_part for p in mono)
        and all(a >= b for a, b in zip(mono, mono[1:]))
    ):
        raise ValueError(
            f"{list(mono)} is not a basis monomial: parts must be weakly decreasing integers >= {min_part}"
        )


def _insert_part(mono, p):
    # Insert p into a descending tuple.
    for i, q in enumerate(mono):
        if p >= q:
            return mono[:i] + (p,) + mono[i:]
    return mono + (p,)


# ---------------------------------------------------------------------------
# algebras


class Algebra:
    """Common surface of the graded algebras; also usable as its own module."""

    def __init__(self, cutoff: int):
        self.cutoff = cutoff
        self._mode_cache = {}

    # module-protocol methods (adjoint module)
    @property
    def algebra(self):
        return self

    is_dual = False
    module_key = ("adjoint",)

    def vacuum_mono(self):
        return ()

    def weight(self, mono) -> int:
        raise NotImplementedError

    def basis(self, n: int):
        raise NotImplementedError

    def check_mono(self, mono):
        """Raise ValueError unless ``mono`` is a basis monomial of the space."""
        raise NotImplementedError

    def mode_mono(self, u_mono, n: int, w_mono, module) -> dict:
        raise NotImplementedError


class _GeneratorAlgebra(Algebra):
    """Shared recursion for algebras generated by a single field; basis
    monomials are partitions with parts >= ``min_part``."""

    min_part = 1

    def weight(self, mono):
        return sum(mono)

    def basis(self, n):
        return partitions(n, self.min_part)

    def check_mono(self, mono):
        _check_partition(mono, self.min_part)

    def peel(self, u_mono):
        """Split u = Y(gen)_p v, returning (p, v)."""
        raise NotImplementedError

    def gen_mode(self, j: int, w_mono, module) -> dict:
        """Y(gen)_j acting on a module basis monomial."""
        raise NotImplementedError

    def gen_mode_support(self, w_mono, module):
        """Indices j >= 0 with Y(gen)_j w possibly nonzero."""
        raise NotImplementedError

    def mode_mono(self, u_mono, n, w_mono, module):
        key = (u_mono, n, w_mono, module.module_key)
        hit = self._mode_cache.get(key)
        if hit is not None:
            return hit
        if u_mono == ():
            out = {w_mono: S1} if n == -1 else {}
            self._mode_cache[key] = out
            return out
        p, v_mono = self.peel(u_mono)
        if v_mono == ():
            # u = Y(gen)_{-j-1}|0> with j = -p-1: Y(u)_n = (-1)^j C(n, j) Y(gen)_{n-j}
            j = -p - 1
            c = Scalar.integer((-1) ** j * binomial(n, j))
            out = {} if c.is_zero() else {m: x * c for m, x in self.gen_mode(n - j, w_mono, module).items()}
            self._mode_cache[key] = out
            return out
        wt_vw = self.weight(v_mono) + module.weight(w_mono)
        out = {}
        # sum_l (-1)^l C(p,l) Y(gen)_{p-l} Y(v)_{n+l} w
        for l in range(0, wt_vw - n):
            c = binomial(p, l)
            if c == 0:
                continue
            sign = -1 if l % 2 else 1
            inner = self.mode_mono(v_mono, n + l, w_mono, module)
            for m2, c2 in inner.items():
                for m3, c3 in self.gen_mode(p - l, m2, module).items():
                    _acc(out, m3, c3 * c2 * (sign * c))
        # -(-1)^p sum_l (-1)^l C(p,l) Y(v)_{p+n-l} Y(gen)_l w
        psign = -1 if p % 2 else 1
        for l in self.gen_mode_support(w_mono, module):
            c = binomial(p, l)
            if c == 0:
                continue
            sign = -1 if l % 2 else 1
            for m2, c2 in self.gen_mode(l, w_mono, module).items():
                inner = self.mode_mono(v_mono, p + n - l, m2, module)
                for m3, c3 in inner.items():
                    _acc(out, m3, c3 * c2 * (-psign * sign * c))
        out = {m: c for m, c in out.items() if not c.is_zero()}
        self._mode_cache[key] = out
        return out


class HeisenbergAlgebra(_GeneratorAlgebra):
    """Rank-1 free boson: [a_m, a_n] = m delta_{m+n,0}, generator a = a_{-1}|0>."""

    kind = "heisenberg"
    momentum = S0  # as its own (adjoint) module the zero mode acts by 0

    def conformal_monos(self):
        # c = (1/2) a_{-1} a_{-1} |0>
        return {(1, 1): Scalar.rational(1, 2)}

    def peel(self, u_mono):
        return -u_mono[0], u_mono[1:]

    def osc(self, j: int, w_mono, momentum) -> dict:
        """a_j on a Fock basis monomial with the given zero-mode momentum."""
        if j < 0:
            return {_insert_part(w_mono, -j): S1}
        if j == 0:
            return {} if momentum.is_zero() else {w_mono: momentum}
        mult = w_mono.count(j)
        if mult == 0:
            return {}
        i = w_mono.index(j)
        return {w_mono[:i] + w_mono[i + 1 :]: Scalar.integer(j * mult)}

    def gen_mode(self, j, w_mono, module):
        return self.osc(j, w_mono, module.momentum)

    def gen_mode_support(self, w_mono, module):
        support = sorted(set(w_mono))
        if not module.momentum.is_zero():
            support = [0] + support
        return support


class VirasoroAlgebra(_GeneratorAlgebra):
    """Universal Virasoro vacuum module at an exact central charge."""

    kind = "virasoro"
    min_part = 2

    def __init__(self, central_charge, cutoff: int):
        super().__init__(cutoff)
        c = central_charge
        self.central_charge = c if isinstance(c, Scalar) else Scalar._coerce(c)

    def conformal_monos(self):
        return {(2,): S1}

    def peel(self, u_mono):
        return -u_mono[0] + 1, u_mono[1:]

    def gen_mode(self, j, w_mono, module):
        return self.vir_L(j - 1, w_mono)

    def gen_mode_support(self, w_mono, module):
        return range(0, sum(w_mono) + 2)

    def vir_L(self, n: int, mono) -> dict:
        """L_n on a basis monomial, by PBW straightening."""
        key = ("L", n, mono)
        hit = self._mode_cache.get(key)
        if hit is not None:
            return hit
        if mono == ():
            out = {(-n,): S1} if n <= -2 else {}
            self._mode_cache[key] = out
            return out
        m1, rest = mono[0], mono[1:]
        out = {}
        # [L_n, L_{-m1}] = (n + m1) L_{n-m1} + delta_{n,m1} (n^3 - n)/12 c
        if n + m1 != 0:
            for m2, c2 in self.vir_L(n - m1, rest).items():
                _acc(out, m2, c2 * Scalar.integer(n + m1))
        if n == m1:
            central = self.central_charge * Scalar.from_fraction(Fraction(n**3 - n, 12))
            if not central.is_zero():
                _acc(out, rest, central)
        for m2, c2 in self.vir_L(n, rest).items():
            for m3, c3 in self._prepend(m1, m2).items():
                _acc(out, m3, c3 * c2)
        out = {m: c for m, c in out.items() if not c.is_zero()}
        self._mode_cache[key] = out
        return out

    def _prepend(self, m: int, mono) -> dict:
        # L_{-m} applied to a basis monomial (m >= 2), keeping PBW order.
        if mono == () or m >= mono[0]:
            return {(m,) + mono: S1}
        p, rest = mono[0], mono[1:]
        out = {}
        # L_{-m} L_{-p} = L_{-p} L_{-m} + (p - m) L_{-m-p}
        for m2, c2 in self._prepend(m, rest).items():
            for m3, c3 in self._prepend(p, m2).items():
                _acc(out, m3, c3 * c2)
        for m3, c3 in self._prepend(m + p, rest).items():
            _acc(out, m3, c3 * Scalar.integer(p - m))
        return out


class TensorPowerAlgebra(Algebra):
    """V^(x)k with the cyclic rotation automorphism g."""

    kind = "tensor_power"

    def __init__(self, base: Algebra, k: int):
        super().__init__(base.cutoff)
        self.base = base
        self.k = k

    def weight(self, mono):
        return sum(self.base.weight(m) for m in mono)

    def basis(self, n):
        out = []

        def rec(slot, remaining, prefix):
            if slot == self.k - 1:
                for m in self.base.basis(remaining):
                    out.append(prefix + (m,))
                return
            for g in range(remaining + 1):
                for m in self.base.basis(g):
                    rec(slot + 1, remaining - g, prefix + (m,))

        rec(0, n, ())
        return tuple(out)

    def check_mono(self, mono):
        if len(mono) != self.k or not all(type(m) is tuple for m in mono):
            raise ValueError(f"{mono!r} is not a basis monomial: expected {self.k} slot tuples")
        for m in mono:
            self.base.check_mono(m)

    def vacuum_mono(self):
        return ((),) * self.k

    def conformal_monos(self):
        out = {}
        for i in range(self.k):
            for m, c in self.base.conformal_monos().items():
                mono = ((),) * i + (m,) + ((),) * (self.k - 1 - i)
                _acc(out, mono, c)
        return out

    def rotate_mono(self, mono):
        return (mono[-1],) + mono[:-1]

    def mode_mono(self, u_mono, n, w_mono, module):
        if module is not self:
            raise ValueError("tensor modes act on the adjoint module only")
        key = (u_mono, n, w_mono)
        hit = self._mode_cache.get(key)
        if hit is not None:
            return hit
        k = self.k
        base = self.base
        # Y(u_1 (x) ... (x) u_k)_n = sum over n_1 + ... + n_k = n - k + 1 of
        # the slotwise modes; each slot index is confined to the window where
        # the slot result has weight in [0, cutoff].
        windows = []
        for i in range(k):
            top = base.weight(u_mono[i]) + base.weight(w_mono[i]) - 1
            windows.append((top - base.cutoff, top))
        out = {}

        def rec(slot, n_rest, partial):
            if slot == k - 1:
                lo, hi = windows[slot]
                if not (lo <= n_rest <= hi):
                    return
                res = base.mode_mono(u_mono[slot], n_rest, w_mono[slot], base)
                for m, c in res.items():
                    for pm, pc in partial.items():
                        _acc(out, pm + (m,), pc * c)
                return
            lo, hi = windows[slot]
            min_rest = sum(w[0] for w in windows[slot + 1 :])
            max_rest = sum(w[1] for w in windows[slot + 1 :])
            for ni in range(max(lo, n_rest - max_rest), min(hi, n_rest - min_rest) + 1):
                res = base.mode_mono(u_mono[slot], ni, w_mono[slot], base)
                if not res:
                    continue
                nxt = {}
                for m, c in res.items():
                    for pm, pc in partial.items():
                        _acc(nxt, pm + (m,), pc * c)
                rec(slot + 1, n_rest - ni, nxt)

        rec(0, n - k + 1, {(): S1})
        out = {m: c for m, c in out.items() if not c.is_zero()}
        self._mode_cache[key] = out
        return out


# ---------------------------------------------------------------------------
# modules


class FockModule:
    """Heisenberg Fock module; the zero mode acts by the momentum scalar."""

    is_dual = False

    def __init__(self, algebra: HeisenbergAlgebra, momentum=0):
        if not isinstance(algebra, HeisenbergAlgebra):
            raise ValueError("Fock modules exist over the Heisenberg algebra")
        self.algebra = algebra
        m = momentum
        self.momentum = m if isinstance(m, Scalar) else Scalar._coerce(m)
        self.module_key = ("fock", self.momentum)

    @property
    def cutoff(self):
        return self.algebra.cutoff

    @property
    def grading_offset(self):
        """Conformal weight of the momentum vacuum; the stored grading is the
        depth above it, so eigenvalues sit in N after subtracting this."""
        return self.momentum * self.momentum * Scalar.rational(1, 2)

    def vacuum_mono(self):
        return ()

    def weight(self, mono):
        return sum(mono)

    def basis(self, n):
        return partitions(n, 1)

    def check_mono(self, mono):
        _check_partition(mono, 1)


def dual_of(module) -> "DualModule":
    """The canonical graded dual of a module (one instance per module)."""
    if getattr(module, "is_dual", False):
        return module.base
    if not hasattr(module, "_dual"):
        module._dual = DualModule(module)
    return module._dual


class DualModule:
    """Graded dual W' with W'(n) = W(n)*, carrying the dual monomial basis."""

    is_dual = True

    def __init__(self, base):
        if getattr(base, "is_dual", False):
            raise ValueError("double duals are identified with the base module")
        self.base = base
        self.algebra = base.algebra

    @property
    def cutoff(self):
        return self.base.cutoff

    def vacuum_mono(self):
        return self.base.vacuum_mono()

    def weight(self, mono):
        return self.base.weight(mono)

    def basis(self, n):
        return self.base.basis(n)

    def check_mono(self, mono):
        self.base.check_mono(mono)


# ---------------------------------------------------------------------------
# graded vectors


class GradedVector:
    """Finite combination of weighted basis monomials of one space.

    Coefficients are Scalars, or FracLaurent series when a formal parameter
    rides along (e.g. coordinate-change images inside the twisted machinery).
    """

    __slots__ = ("space", "terms")

    def __init__(self, space, terms=None):
        self.space = space
        clean = {}
        for m, c in (terms or {}).items():
            if not isinstance(c, Scalar) and not hasattr(c, "terms"):
                c = Scalar._coerce(c)
            if not c.is_zero():
                clean[m] = c
        self.terms = clean

    @staticmethod
    def state(space, mono, coef=1):
        """coef times one basis state; ValueError unless ``mono`` is a basis
        monomial of ``space``.  Other constructors take monomials unchecked."""
        mono = tuple(mono)
        space.check_mono(mono)
        return GradedVector(space, {mono: coef})

    @staticmethod
    def vacuum(space):
        return GradedVector.state(space, space.vacuum_mono())

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if other == 0:
            return self
        if self.space is not other.space:
            raise ValueError("vectors live in different spaces")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            if m in terms:
                terms[m] = terms[m] + c
            else:
                terms[m] = c
        return GradedVector(self.space, terms)

    __radd__ = __add__

    def __neg__(self):
        return GradedVector(self.space, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return GradedVector(self.space, {m: x * c for m, x in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return self.is_zero()
        if not isinstance(other, GradedVector):
            return NotImplemented
        return self.space is other.space and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.space), tuple(sorted(self.terms.items(), key=repr))))

    def __repr__(self):
        if not self.terms:
            return "GradedVector(0)"
        body = " + ".join(f"({c})*{m}" for m, c in sorted(self.terms.items()))
        return f"GradedVector({body})"

    def weight_components(self) -> dict:
        out = {}
        for m, c in self.terms.items():
            w = self.space.weight(m)
            out.setdefault(w, {})[m] = c
        return {w: GradedVector(self.space, t) for w, t in out.items()}

    def homogeneous_weight(self):
        """The common weight of the support, or None if mixed or zero."""
        weights = {self.space.weight(m) for m in self.terms}
        return weights.pop() if len(weights) == 1 else None

    def max_weight(self):
        return max((self.space.weight(m) for m in self.terms), default=0)

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), S0)


# ---------------------------------------------------------------------------
# public operations


def _as_int_index(n):
    n = Fraction(n)
    if n.denominator != 1:
        raise ValueError("untwisted mode indices must be integers")
    return int(n)


def mode_action(u: GradedVector, n, w: GradedVector) -> GradedVector:
    """Y(u)_n w for u in the algebra and w in a compatible module.

    Homogeneous inputs give a homogeneous result of weight
    wt(u) + wt(w) - n - 1; a result above the algebra cutoff raises
    CutoffOverflow instead of silently truncating.
    """
    n = _as_int_index(n)
    alg = u.space
    if not isinstance(alg, Algebra):
        raise ValueError("first argument must be an algebra vector")
    module = w.space
    if getattr(module, "is_dual", False):
        raise ValueError("use contragredient_mode for dual-module actions")
    if module.algebra is not alg:
        raise ValueError("module is not over the acting algebra")
    out = {}
    cutoff = alg.cutoff
    for um, uc in u.terms.items():
        for wm, wc in w.terms.items():
            wt_out = alg.weight(um) + module.weight(wm) - n - 1
            if wt_out < 0:
                continue
            if wt_out > cutoff:
                raise CutoffOverflow(wt_out, cutoff)
            for m, c in alg.mode_mono(um, n, wm, module).items():
                if m in out:
                    out[m] = out[m] + c * uc * wc
                else:
                    out[m] = c * uc * wc
    return GradedVector(module, out)


def jacobi_sweep(act, u: GradedVector, v: GradedVector, w: GradedVector, instances, k: int = 1):
    """Yield lhs - rhs of the Jacobi (Borcherds) identity applied to w,

        sum_l C(m, l) Y(Y(u)_{n+l} v)_{m+h-l} w
          - sum_l C(n, l) (-1)^l     Y(u)_{m+n-l} Y(v)_{h+l} w
          + sum_l C(n, l) (-1)^(n-l) Y(v)_{n+h-l} Y(u)_{m+l} w,

    for each (m, n, h) of ``instances``, in order.

    ``act(x, p, y)`` is the module action Y(x)_p y: ``mode_action``, or the
    g-twisted action of V^(x)k on a module graded by k times its twisted
    weight, where m (for a g-eigencomponent u) and h lie in (1/k)Z.  The
    iterate Y(u)_{n+l} v is always taken in the algebra.  Every sum stops
    where lower truncation kills its terms, so the identity holds on
    (u, v, w, m, n, h) exactly when the difference is zero.

    The instances of one (u, v, w) share most of their actions, so each is
    computed once per call: the memo is keyed on the action's role and its
    exact indices (u, v and w are fixed, so no vector is hashed), and it is
    dropped when the sweep ends."""
    wt_u, wt_v, wt_w = (x.homogeneous_weight() for x in (u, v, w))
    if wt_u is None or wt_v is None or wt_w is None:
        raise ValueError("u, v and w must be homogeneous and nonzero")
    memo = {}

    def once(key, f, x, p, y):
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = f(x, p, y)
        return hit

    def add(total, vec, c):
        for mono, x in vec.terms.items():
            _acc(total, mono, x * c)

    for m, n, h in instances:
        total = {}
        # every term has grade k (wt_u + wt_v - m - n - h - 2) + wt_w
        if k * (wt_u + wt_v - m - n - h - 2) + wt_w >= 0:
            for l in range(wt_u + wt_v - n):
                c = binomial(m, l)
                if c == 0:
                    continue
                inner = once(("uv", n + l), mode_action, u, n + l, v)
                if not inner.is_zero():
                    add(total, once(("uvw", n + l, m + h - l), act, inner, m + h - l, w), c)
            # the product sums stop where the inner grade k (wt - index - 1) + wt_w < 0
            for l in range((k * (wt_v - h) + wt_w) // k):
                c = binomial(n, l)
                if c == 0:
                    continue
                inner = once(("vw", h + l), act, v, h + l, w)
                if not inner.is_zero():
                    add(total, once(("uvw2", h + l, m + n - l), act, u, m + n - l, inner), -c if l % 2 == 0 else c)
            for l in range((k * (wt_u - m) + wt_w) // k):
                c = binomial(n, l)
                if c == 0:
                    continue
                inner = once(("uw", m + l), act, u, m + l, w)
                if not inner.is_zero():
                    add(total, once(("vuw", m + l, n + h - l), act, v, n + h - l, inner), c if (n - l) % 2 == 0 else -c)
        yield GradedVector(w.space, total)


def jacobi_difference(act, u: GradedVector, v: GradedVector, w: GradedVector, m, n: int, h, k: int = 1):
    """lhs - rhs of the Jacobi identity on the one instance (m, n, h); see
    ``jacobi_sweep``."""
    return next(jacobi_sweep(act, u, v, w, [(m, n, h)], k))


def conformal_vector(alg: Algebra) -> GradedVector:
    return GradedVector(alg, alg.conformal_monos())


def virasoro_mode(n: int, w: GradedVector) -> GradedVector:
    """L_n w = Y(c)_{n+1} w for the conformal vector c of the algebra."""
    alg = w.space.algebra
    if isinstance(alg, VirasoroAlgebra) and w.space is alg:
        out = {}
        for wm, wc in w.terms.items():
            wt_out = sum(wm) - n
            if wt_out > alg.cutoff:
                raise CutoffOverflow(wt_out, alg.cutoff)
            for m, c in alg.vir_L(n, wm).items():
                _acc(out, m, c * wc)
        return GradedVector(alg, {m: c for m, c in out.items() if not c.is_zero()})
    return mode_action(conformal_vector(alg), n + 1, w)


def dual_pairing(w: GradedVector, wp: GradedVector):
    """<w, w'> with w' in the graded dual of w's module."""
    if not getattr(wp.space, "is_dual", False) or wp.space.base is not w.space:
        raise ValueError("mismatched module descriptors in dual pairing")
    total = S0
    for m, c in w.terms.items():
        cp = wp.terms.get(m)
        if cp is not None:
            total = total + c * cp
    return total


def contragredient_mode(u: GradedVector, n, wp: GradedVector) -> GradedVector:
    """Y_{W'}(u)_n w' on the graded dual, by the adjoint formula

    <w, Y_{W'}(u)_n w'> = sum_j ((-1)^h / j!) <Y(L_1^j u)_{2h-j-n-2} w, w'>

    for homogeneous u of weight h.
    """
    n = _as_int_index(n)
    dual = wp.space
    if not getattr(dual, "is_dual", False):
        raise ValueError("contragredient_mode needs a dual-module vector")
    W = dual.base
    alg = u.space
    out = {}
    for h, u_part in u.weight_components().items():
        ladder = []
        v = u_part
        j = 0
        while not v.is_zero():
            ladder.append((j, v))
            v = virasoro_mode(1, v)
            j += 1
        sign = Scalar.integer((-1) ** h)
        for g, wp_part in wp.weight_components().items():
            target = h + g - n - 1
            if target < 0:
                continue
            if target > W.cutoff:
                raise CutoffOverflow(target, W.cutoff)
            for b in W.basis(target):
                val = S0
                bvec = GradedVector.state(W, b)
                for j, uj in ladder:
                    m_idx = 2 * h - j - n - 2
                    acted = mode_action(uj, m_idx, bvec)
                    term = dual_pairing(acted, wp_part)
                    val = val + term * Scalar.from_fraction(Fraction(1, math.factorial(j)))
                val = val * sign
                if not val.is_zero():
                    _acc(out, b, val)
    return GradedVector(dual, out)


def tensor_vector(alg: TensorPowerAlgebra, factors) -> GradedVector:
    """The tensor product of k base-algebra vectors."""
    if len(factors) != alg.k:
        raise ValueError(f"expected {alg.k} tensor factors, got {len(factors)}")
    terms = {(): S1}
    for v in factors:
        if v.space is not alg.base:
            raise ValueError("tensor factors must lie in the base algebra")
        nxt = {}
        for pm, pc in terms.items():
            for m, c in v.terms.items():
                _acc(nxt, pm + (m,), pc * c)
        terms = nxt
    return GradedVector(alg, terms)


def cycle_rotate(v: GradedVector) -> GradedVector:
    """The cyclic automorphism g: v_1 (x) ... (x) v_k -> v_k (x) v_1 (x) ..."""
    alg = v.space
    if not isinstance(alg, TensorPowerAlgebra):
        raise ValueError("cycle_rotate acts on tensor-power vectors")
    return GradedVector(alg, {alg.rotate_mono(m): c for m, c in v.terms.items()})

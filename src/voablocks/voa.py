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

and at the vacuum, Y(|0>)_n = delta_{n,-1}.  The Virasoro generator is the
conformal vector, so there L_n = Y(L_{-2}|0>)_{n+1} is the generator's mode:
it is computed by PBW straightening and cached only under that mode_mono key.
All values are immutable and the mode cache is only ever filled with
deterministic pure results.

Mode tables, vector coefficients, the Fock momentum and the central charge
hold the stored form of ``scalars.stored``: an ``int``, or a ``Fraction``
where a rational momentum or central charge makes a value non-integral.
Only a value that is not rational (a cyclotomic Fock momentum) stays a
``Scalar``, and mixed arithmetic carries it through the same code.  So the
mode-action loops multiply stored values directly; a ``Scalar`` is built
only where a caller asks for one (``dual_pairing``,
``GradedVector.coefficient``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .scalars import Scalar, binomial, stored

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
            out = {w_mono: 1} if n == -1 else {}
            self._mode_cache[key] = out
            return out
        p, v_mono = self.peel(u_mono)
        if v_mono == ():
            # u = Y(gen)_{-j-1}|0> with j = -p-1: Y(u)_n = (-1)^j C(n, j) Y(gen)_{n-j}
            j = -p - 1
            if j == 0:
                out = self.gen_mode(n, w_mono, module)  # the generator itself: coefficient 1
            else:
                c = (-1) ** j * binomial(n, j)
                out = {m: x * c for m, x in self.gen_mode(n - j, w_mono, module).items()} if c else {}
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
        out = {m: c for m, c in out.items() if c != 0}
        self._mode_cache[key] = out
        return out


class HeisenbergAlgebra(_GeneratorAlgebra):
    """Rank-1 free boson: [a_m, a_n] = m delta_{m+n,0}, generator a = a_{-1}|0>."""

    kind = "heisenberg"
    momentum = 0  # as its own (adjoint) module the zero mode acts by 0

    def conformal_monos(self):
        # c = (1/2) a_{-1} a_{-1} |0>
        return {(1, 1): Fraction(1, 2)}

    def peel(self, u_mono):
        return -u_mono[0], u_mono[1:]

    def osc(self, j: int, w_mono, momentum) -> dict:
        """a_j on a Fock basis monomial with the given zero-mode momentum."""
        if j < 0:
            return {_insert_part(w_mono, -j): 1}
        if j == 0:
            return {w_mono: momentum} if momentum else {}
        mult = w_mono.count(j)
        if mult == 0:
            return {}
        i = w_mono.index(j)
        return {w_mono[:i] + w_mono[i + 1 :]: j * mult}

    def gen_mode(self, j, w_mono, module):
        return self.osc(j, w_mono, module.momentum)

    def gen_mode_support(self, w_mono, module):
        support = sorted(set(w_mono))
        if module.momentum:
            support = [0] + support
        return support


class VirasoroAlgebra(_GeneratorAlgebra):
    """Universal Virasoro vacuum module at an exact central charge.  Its
    generator is the conformal vector L_{-2}|0>, whose modes are the L_n."""

    kind = "virasoro"
    min_part = 2

    def __init__(self, central_charge, cutoff: int):
        super().__init__(cutoff)
        self.central_charge = stored(central_charge)

    def conformal_monos(self):
        return {(2,): 1}

    def peel(self, u_mono):
        return -u_mono[0] + 1, u_mono[1:]

    def gen_mode(self, j, w_mono, module):
        """L_{j-1} on a basis monomial, by PBW straightening.  L_{j-1} is the
        generator's mode Y(L_{-2}|0>)_j, so its table is cached under that
        mode_mono key and nowhere else; the smaller L-actions of the
        straightening, the iterate recursion and the closed form all read it."""
        key = ((2,), j, w_mono, self.module_key)
        hit = self._mode_cache.get(key)
        if hit is not None:
            return hit
        n = j - 1
        if n <= -2 and (w_mono == () or -n >= w_mono[0]):
            out = {(-n,) + w_mono: 1}  # L_n w is already in PBW order
        elif w_mono == ():
            out = {}
        else:
            m1, rest = w_mono[0], w_mono[1:]
            out = {}
            # L_n L_{-m1} = (n + m1) L_{n-m1} + delta_{n,m1} (n^3 - n)/12 c + L_{-m1} L_n
            if n + m1 != 0:
                for m2, c2 in self.gen_mode(n - m1 + 1, rest, self).items():
                    _acc(out, m2, c2 * (n + m1))
            if n == m1:
                central = self.central_charge * Fraction(n**3 - n, 12)
                if central != 0:
                    _acc(out, rest, central)
            for m2, c2 in self.gen_mode(j, rest, self).items():
                for m3, c3 in self.gen_mode(1 - m1, m2, self).items():
                    _acc(out, m3, c3 * c2)
            out = {m: c for m, c in out.items() if c != 0}
        self._mode_cache[key] = out
        return out

    def gen_mode_support(self, w_mono, module):
        return range(0, sum(w_mono) + 2)


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

        rec(0, n - k + 1, {(): 1})
        out = {m: c for m, c in out.items() if c != 0}
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
        self.momentum = stored(momentum)
        # exact and hashed cheaply: str is canonical for a stored value and caches its hash
        self.module_key = ("fock", str(self.momentum))

    @property
    def cutoff(self):
        return self.algebra.cutoff

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

    Coefficients are in the stored form of ``scalars.stored``: an ``int``
    (when integral), a ``Fraction`` or a cyclotomic ``Scalar``; a series
    raises TypeError.  The constructor copies its input, brings every value
    to that one type and drops zeros, so equal vectors have equal ``terms``
    items, hashes included.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space, terms=None):
        self.space = space
        clean = {}
        for m, c in (terms or {}).items():
            if type(c) is not int:
                c = stored(c)
            if c:
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
            _acc(terms, m, c)
        return GradedVector(self.space, terms)

    __radd__ = __add__

    def __neg__(self):
        return GradedVector(self.space, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = stored(c)
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
        """The coefficient of a basis monomial, as a Scalar."""
        return Scalar._coerce(self.terms.get(tuple(mono), 0))


# ---------------------------------------------------------------------------
# public operations


def _as_int_index(n):
    if type(n) is int:
        return n
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
            res = alg.mode_mono(um, n, wm, module)
            if not res:
                continue
            x = uc * wc
            for m, c in res.items():
                if m in out:
                    out[m] = out[m] + c * x
                else:
                    out[m] = c * x
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
    return mode_action(conformal_vector(w.space.algebra), n + 1, w)


def dual_pairing(w: GradedVector, wp: GradedVector):
    """<w, w'> with w' in the graded dual of w's module, a Scalar."""
    if not getattr(wp.space, "is_dual", False) or wp.space.base is not w.space:
        raise ValueError("mismatched module descriptors in dual pairing")
    return Scalar._coerce(_pairing(w, wp))


def _pairing(w: GradedVector, wp: GradedVector):
    # <w, w'> in the stored values, unchecked
    return sum(c * wp.terms[m] for m, c in w.terms.items() if m in wp.terms)


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
    out = {}
    for h, u_part in u.weight_components().items():
        # the L_1 ladder of u; rung j carries its mode index and the integer
        # (-1)^h top / j!, so each coefficient takes one division by top
        rungs = [u_part]
        while not rungs[-1].is_zero():
            rungs.append(virasoro_mode(1, rungs[-1]))
        rungs.pop()  # the zero that ends the ladder
        top = math.factorial(len(rungs) - 1)
        ladder = [(2 * h - j - n - 2, (-1) ** h * (top // math.factorial(j)), uj) for j, uj in enumerate(rungs)]
        for g, wp_part in wp.weight_components().items():
            target = h + g - n - 1
            if target < 0:
                continue
            if target > W.cutoff:
                raise CutoffOverflow(target, W.cutoff)
            for b in W.basis(target):
                bvec = GradedVector(W, {b: 1})
                val = 0
                for m_idx, c, uj in ladder:
                    val = val + c * _pairing(mode_action(uj, m_idx, bvec), wp_part)
                _acc(out, b, val * Fraction(1, top) if top > 1 else val)
    return GradedVector(dual, out)


def tensor_vector(alg: TensorPowerAlgebra, factors) -> GradedVector:
    """The tensor product of k base-algebra vectors."""
    if len(factors) != alg.k:
        raise ValueError(f"expected {alg.k} tensor factors, got {len(factors)}")
    terms = {(): 1}
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

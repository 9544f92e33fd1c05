"""Reference values computed without voablocks.

Everything here is derived from textbook formulas for the rank-1 free
boson, with plain ``fractions.Fraction`` arithmetic and ``sympy`` for the
partition numbers and the cyclotomic reductions.  Nothing in this module
imports the program under test, so a value that agrees with it agrees with
an independent derivation, not with a second call into the same code.

Conventions shared with the program's public output format:

* a Fock basis monomial ``(n1 >= n2 >= ...)`` stands for
  ``a_{-n1} a_{-n2} ... |p>`` (unnormalized), and a dual basis monomial
  extracts that coefficient;
* an element of the k-th cyclotomic field is written over the power basis
  of ``w = exp(-2 pi i / k)``; one whose coordinates are all rational
  constants is written as a plain ``Fraction``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# ---------------------------------------------------------------------------
# partitions and the jacobi-check sweep size


def partition_count(n: int) -> int:
    import sympy

    return int(sympy.partition(n))


def jacobi_triple_count(grade: int) -> int:
    """Triples (u, v, w) of basis states of grade <= ``grade`` each."""
    per_slot = sum(partition_count(g) for g in range(grade + 1))
    return per_slot**3


# ---------------------------------------------------------------------------
# the free-boson Fock space, one oscillator at a time


def _add(acc, mono, coef):
    value = acc.get(mono, 0) + coef
    if value:
        acc[mono] = value
    else:
        acc.pop(mono, None)


def oscillator(j: int, state: dict, momentum: Fraction) -> dict:
    """a_j on a Fock vector {descending partition: coefficient}.

    [a_m, a_n] = m delta_{m+n,0}, a_0 acts by the momentum, and a_j with
    j > 0 annihilates the vacuum."""
    out = {}
    for mono, coef in state.items():
        if j < 0:
            _add(out, tuple(sorted(mono + (-j,), reverse=True)), coef)
        elif j == 0:
            if momentum:
                _add(out, mono, coef * momentum)
        else:
            mult = mono.count(j)
            if mult:
                rest = list(mono)
                rest.remove(j)
                _add(out, tuple(rest), coef * j * mult)
    return out


def vertex_mode(u_mono, n: int, w_mono, momentum=Fraction(0)) -> dict:
    """Y(u)_n w for u = a_{-n1}...a_{-nm}|0> and a Fock basis state w.

    Y(u, z) is the normal-ordered product of the fields
    d^(n_i - 1) a(z) / (n_i - 1)! = sum_j C(-j-1, n_i-1) a_j z^(-j-n_i);
    the coefficient of z^(-n-1) collects the index tuples with
    sum_i (j_i + n_i) = n + 1.  Normal order applies annihilators first,
    then zero modes, then creators."""
    momentum = Fraction(momentum)
    w_state = {tuple(w_mono): Fraction(1)}
    if not u_mono:
        return dict(w_state) if n == -1 else {}
    wt_w = sum(w_mono)
    wt_out = sum(u_mono) + wt_w - n - 1
    if wt_out < 0:
        return {}
    lo, hi = -(wt_out + wt_w), wt_w
    total = n + 1 - sum(u_mono)
    out = {}
    for js in itertools.product(range(lo, hi + 1), repeat=len(u_mono) - 1):
        last = total - sum(js)
        if not lo <= last <= hi:
            continue
        js = js + (last,)
        coef = Fraction(1)
        for j, part in zip(js, u_mono):
            coef *= _binomial(-j - 1, part - 1)
        if coef == 0:
            continue
        state = dict(w_state)
        for j in sorted(js, reverse=True):  # annihilators, zero modes, creators
            state = oscillator(j, state, momentum)
            if not state:
                break
        for mono, c in state.items():
            _add(out, mono, c * coef)
    return out


def _binomial(p: int, m: int) -> int:
    """C(p, m) for integer p of either sign and m >= 0."""
    out = Fraction(1)
    for i in range(m):
        out = out * (p - i) / (i + 1)
    return int(out)


# ---------------------------------------------------------------------------
# twisted modules: weight-one modes and their slot phases


def cyclotomic(k: int, exponent: int, scale: Fraction):
    """scale * w^exponent with w = exp(-2 pi i / k), reduced modulo the k-th
    cyclotomic polynomial; a rational result is a plain Fraction."""
    import sympy

    x = sympy.Symbol("x")
    rem = sympy.Poly(sympy.rem(x ** (exponent % k), sympy.cyclotomic_poly(k, x), x), x)
    degree = sympy.degree(sympy.cyclotomic_poly(k, x), x)
    coords = [Fraction(0)] * degree
    for (power,), c in rem.terms():
        coords[power] = Fraction(int(c.p), int(c.q)) * scale
    if all(c == 0 for c in coords[1:]):
        return coords[0]
    return ("cyc", k, tuple(coords))


def twisted_weight_one(k: int, slot: int, m: int, w_mono) -> dict:
    """Y^g(a in tensor slot ``slot``)_{m/k} w on the momentum-zero Fock
    module: (1/k) w^(-slot m) a_m w."""
    out = {}
    for mono, c in oscillator(m, {tuple(w_mono): Fraction(1)}, Fraction(0)).items():
        out[mono] = cyclotomic(k, -slot * m, c / k)
    return out


# ---------------------------------------------------------------------------
# closed forms


def sew_series(q_cutoff: int) -> dict:
    """The default ``sew`` q-series: u = a_{-2}|0>, w = a_{-1}|0>, w' the sum
    of all dual basis states.  Y(u, z) = d a(z), so the grade-g coefficient
    is the coefficient sum of (g - 2) a_{1-g} a_{-1}|0>: -2 at g = 0, 0 at
    g = 1, 2 and g - 2 from g = 3 on."""
    out = {0: Fraction(-2)}
    for g in range(3, q_cutoff + 1):
        out[g] = Fraction(g - 2)
    return out


def two_point(z1, z2) -> Fraction:
    """<0| a(z2) a(z1) |0> = (z1 - z2)^-2."""
    return 1 / (Fraction(z1) - Fraction(z2)) ** 2


def four_point(zs) -> Fraction:
    """<0| a(z4) a(z3) a(z2) a(z1) |0> as the sum over the three pairings."""
    z = [Fraction(x) for x in zs]
    total = Fraction(0)
    for (i, j), (k, l) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        total += two_point(z[i], z[j]) * two_point(z[k], z[l])
    return total


def free_boson_correlator(zs) -> Fraction:
    if len(zs) == 2:
        return two_point(*zs)
    if len(zs) == 4:
        return four_point(zs)
    raise ValueError("closed forms are provided for two and four points")


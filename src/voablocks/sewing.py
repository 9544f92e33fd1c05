"""Graded sewing q-series and the sewing/propagation commutation check.

Sewing contracts a block against the graded Casimir element of a module and
its contragredient: the coefficient of q^n is assembled from exactly the
grade-n shell (basis paired with dual basis).  q stays formal throughout;
numbers enter only in the convergence diagnostics.

The commutation check realizes the two-sphere configuration: a pairing
block on sphere A (w at 0, the Casimir's dual leg at infinity) times one on
sphere B (the Casimir leg at 0, w' at infinity), sewn along those legs, with
insertions on both spheres away from the sewing discs.  The sewn-then-
propagated side is evaluated from the free-boson oracle as a rational
function of q and expanded; the propagated-then-sewn side is a shell-by-
shell sum of propagation values.  The two must agree coefficient-by-
coefficient in q.
"""

from __future__ import annotations

from fractions import Fraction

from .blocks import heisenberg_correlator, propagate_eval
from .scalars import Scalar
from .series import FracLaurent
from .voa import GradedVector, dual_of

S0 = Scalar.integer(0)
S1 = Scalar.integer(1)


class TrivialModule:
    """The one-dimensional module concentrated in grade zero (for fixtures)."""

    is_dual = False
    algebra = None

    def vacuum_mono(self):
        return ()

    def weight(self, mono):
        return 0

    def basis(self, n):
        return ((),) if n == 0 else ()

    def check_mono(self, mono):
        if mono != ():
            raise ValueError(f"{mono!r} is not a basis monomial: the trivial module has only ()")


def casimir_shells(module, grade: int):
    """Basis/dual-basis pairs spanning the grade-n Casimir element."""
    dual = dual_of(module)
    return [
        (GradedVector.state(module, mono), GradedVector.state(dual, mono))
        for mono in module.basis(grade)
    ]


def sew(block_fn, module, q_cutoff: int, qvar: str = "q") -> FracLaurent:
    """sum_{n <= N} q^n sum_a block_fn(m(n,a), m-dual(n,a)).

    ``block_fn`` must close over the fixed W-arguments of the block and
    return an exact Scalar for each Casimir pair.
    """
    terms = {}
    for g in range(q_cutoff + 1):
        total = S0
        for m, md in casimir_shells(module, g):
            total = total + block_fn(m, md)
        if not total.is_zero():
            terms[Fraction(g)] = total
    return FracLaurent(qvar, 1, terms, trunc=q_cutoff + 1)


def converge_diag(series: FracLaurent, q0) -> dict:
    """Numeric diagnostics of a q-series at q0: partial sums, successive
    term ratios, and a Cauchy-Hadamard radius estimate from the last 10
    nonzero coefficients."""
    q0c = q0.to_complex() if isinstance(q0, Scalar) else complex(q0)
    coeffs = sorted(series.terms.items())
    partial = []
    acc = 0j
    terms = []
    for e, c in coeffs:
        t = c.to_complex() * q0c ** float(e)
        acc += t
        partial.append(acc)
        terms.append(t)
    ratios = [
        abs(t1) / abs(t0) for t0, t1 in zip(terms, terms[1:]) if abs(t0) > 0
    ]
    top = series.trunc - 1 if series.trunc is not None else (series.degree() or 0)
    window = [
        (e, c) for e, c in coeffs if e > top - 10 and not c.is_zero() and e > 0
    ]
    if not window:
        radius = float("inf")
    else:
        rates = [abs(c.to_complex()) ** (1.0 / float(e)) for e, c in window]
        mean = sum(rates) / len(rates)
        radius = float("inf") if mean == 0 else 1.0 / mean
    return {
        "partial_sums": partial,
        "ratios": ratios,
        "radius_estimate": radius,
        "last_term": abs(terms[-1]) if terms else 0.0,
    }


def sew_propagate_commute_check(
    vs_a,
    za,
    vs_b,
    zb,
    w: GradedVector,
    wp: GradedVector,
    q_cutoff: int,
    grade_cutoff: int,
    qvar: str = "q",
):
    """Both sides of the sewing/propagation commutation as q-series.

    vs_a/za: insertions on the sphere carrying w (the sewn-out leg sits at
    its infinity); vs_b/zb: insertions on the sphere carrying w'.  Points on
    each sphere must be radially ordered.  Returns (ok, max_discrepancy,
    lhs, rhs); the comparison is exact on every shell both sides know.
    """

    def block(m, md):
        a_val = propagate_eval(vs_a, za, w, md, grade_cutoff).value
        if a_val.is_zero():
            return S0
        return a_val * propagate_eval(vs_b, zb, m, wp, grade_cutoff).value

    lhs = sew(block, w.space, q_cutoff, qvar)
    rhs = _sewn_block_expansion(vs_a, za, vs_b, zb, w, wp, q_cutoff, qvar)

    max_disc = 0.0
    ok = True
    for g in range(q_cutoff + 1):
        diff = lhs.coeff(g) - rhs.coeff(g)
        if not diff.is_zero():
            ok = False
            max_disc = max(max_disc, abs(diff.to_complex()))
    return ok, max_disc, lhs, rhs


def _sewn_block_expansion(vs_a, za, vs_b, zb, w, wp, q_cutoff, qvar):
    """Laurent expansion in q of the propagated sewn block: the oracle
    rational function at A-points scaled by q, with the A-side insertion
    weights and the weight of w supplying the trivialization powers of q."""
    for v in list(vs_a) + list(vs_b):
        if v.homogeneous_weight() is None:
            raise ValueError("insertion vectors must be homogeneous")
    shift_ins = sum(v.homogeneous_weight() for v in vs_a)
    points = {}
    for i, z in enumerate(za):
        zc = z if isinstance(z, Scalar) else Scalar._coerce(z)
        points[i] = FracLaurent.monomial(qvar, 1, zc)
    for j, z in enumerate(zb):
        zc = z if isinstance(z, Scalar) else Scalar._coerce(z)
        points[len(za) + j] = FracLaurent(qvar, 1, {Fraction(0): zc})
    out = FracLaurent.zero(qvar, 1, trunc=q_cutoff + 1)
    for h, w_part in w.weight_components().items():
        expr_h = heisenberg_correlator(list(vs_a) + list(vs_b), w_part, wp)
        series = _expand_to(expr_h, points, qvar, q_cutoff + 1 - h - shift_ins)
        out = out + series.shift(h + shift_ins)
    return out.truncate(q_cutoff + 1)


def _expand_to(expr, points, qvar, order_needed):
    # A term's exact monomial prefactor can shift its truncation down, so
    # widen the per-factor binomial order until the target is reached.
    order = max(order_needed, 1)
    for _ in range(12):
        series = expr.substitute(points, qvar, order=order)
        if series.trunc is None or series.trunc >= order_needed:
            return series.truncate(order_needed)
        order += int(order_needed - series.trunc) + 2
    raise RuntimeError("q-expansion failed to reach the requested order")

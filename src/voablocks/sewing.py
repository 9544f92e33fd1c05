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
function of q and expanded in one pass to the q-order the comparison
reads.  On the propagated-then-sewn side the block is <X, m'_a> B(m_a)
with X the A-sphere fields applied to w, so linearity contracts each
Casimir shell into one propagation: q^g has coefficient B(X_g).  The two
sides are compared coefficient-by-coefficient in q.
"""

from __future__ import annotations

from .blocks import _apply_field, heisenberg_correlator, propagate_eval, radial_points
from .series import FracLaurent
from .voa import CutoffOverflow, GradedVector, dual_of


def casimir_shells(module, grade: int):
    """Basis/dual-basis pairs spanning the grade-n Casimir element."""
    dual = dual_of(module)
    return [
        (GradedVector.state(module, mono), GradedVector.state(dual, mono))
        for mono in module.basis(grade)
    ]


def sew(block_fn, module, q_cutoff: int) -> FracLaurent:
    """sum_{n <= N} q^n sum_a block_fn(m(n,a), m-dual(n,a)).

    ``block_fn`` must close over the fixed W-arguments of the block and
    return an exact scalar for each Casimir pair.
    """
    terms = {}
    for g in range(q_cutoff + 1):
        terms[g] = sum(block_fn(m, md) for m, md in casimir_shells(module, g))
    return FracLaurent("q", terms, trunc=q_cutoff + 1)


def converge_diag(series: FracLaurent, q0) -> dict:
    """Numeric diagnostics of a q-series at q0: partial sums, successive
    term ratios, and a Cauchy-Hadamard radius estimate from the last 10
    nonzero coefficients."""
    q0c = complex(q0)
    coeffs = sorted(series.terms.items())
    partial = []
    acc = 0j
    terms = []
    for e, c in coeffs:
        t = complex(c) * q0c ** float(e)
        acc += t
        partial.append(acc)
        terms.append(t)
    ratios = [
        abs(t1) / abs(t0) for t0, t1 in zip(terms, terms[1:]) if abs(t0) > 0
    ]
    top = series.trunc - 1 if series.trunc is not None else (series.degree() or 0)
    window = [
        (e, c) for e, c in coeffs if e > top - 10 and e > 0
    ]
    if not window:
        radius = float("inf")
    else:
        rates = [abs(complex(c)) ** (1.0 / float(e)) for e, c in window]
        mean = sum(rates) / len(rates)
        radius = float("inf") if mean == 0 else 1.0 / mean
    return {
        "partial_sums": partial,
        "ratios": ratios,
        "radius_estimate": radius,
        "last_term": abs(terms[-1]) if terms else 0.0,
    }


def sew_propagate_commute_check(
    vs_a, za, vs_b, zb, w: GradedVector, wp: GradedVector, q_cutoff: int, grade_cutoff: int
):
    """Both sides of the sewing/propagation commutation as q-series.

    vs_a/za: insertions on the sphere carrying w (the sewn-out leg sits at
    its infinity); vs_b/zb: insertions on the sphere carrying w'.  Points on
    each sphere must be radially ordered.  Returns (ok, max_discrepancy,
    lhs, rhs).  The q^g coefficient of lhs is one sphere-B propagation of
    the grade-g part of sphere A's state.  With at most one insertion per
    sphere it is an exact finite sum; with more, inner insertions are cut
    at ``grade_cutoff`` and the discrepancy shrinks as the cutoff grows.
    """
    for v in list(vs_a) + list(vs_b):
        if v.homogeneous_weight() is None:
            raise ValueError("insertion vectors must be homogeneous")
    za = radial_points(vs_a, za)
    state = w
    for i, (v, z) in enumerate(zip(vs_a, za)):
        # the Casimir shells read grades <= q_cutoff of the last insertion only
        top = grade_cutoff if i < len(vs_a) - 1 else min(q_cutoff, grade_cutoff)
        state = _apply_field(v, z, state, range(top + 1))
    comps = state.weight_components()
    terms = {}
    for g in range(q_cutoff + 1):
        needed = max(w.max_weight(), g)
        if needed > grade_cutoff and w.space.basis(g):
            raise CutoffOverflow(needed, grade_cutoff)
        if g in comps:
            terms[g] = propagate_eval(vs_b, zb, comps[g], wp, grade_cutoff).value
    lhs = FracLaurent("q", terms, trunc=q_cutoff + 1)
    rhs = _sewn_block_expansion(vs_a, za, vs_b, zb, w, wp, q_cutoff)

    max_disc = 0.0
    ok = True
    for g in range(q_cutoff + 1):
        diff = lhs.coeff(g) - rhs.coeff(g)
        if not diff.is_zero():
            ok = False
            max_disc = max(max_disc, abs(diff.to_complex()))
    return ok, max_disc, lhs, rhs


def _sewn_block_expansion(vs_a, za, vs_b, zb, w, wp, q_cutoff):
    """Laurent expansion in q of the propagated sewn block: the oracle
    rational function at A-points scaled by q, with the A-side insertion
    weights and the weight of w supplying the trivialization powers of q.
    The insertions are homogeneous (checked by the caller)."""
    shift_ins = sum(v.homogeneous_weight() for v in vs_a)
    points = {}
    for i, z in enumerate(za):
        points[i] = FracLaurent.monomial("q", 1, z)
    for j, z in enumerate(zb):
        points[len(za) + j] = FracLaurent("q", {0: z})
    out = FracLaurent.zero("q", trunc=q_cutoff + 1)
    for h, w_part in w.weight_components().items():
        expr_h = heisenberg_correlator(list(vs_a) + list(vs_b), w_part, wp)
        series = expr_h.substitute(points, "q", trunc=q_cutoff + 1 - h - shift_ins)
        out = out + series.shift(h + shift_ins)
    return out

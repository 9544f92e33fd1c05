"""Shared builders for the test suite."""

from voablocks.scalars import Scalar
from voablocks.voa import (
    FockModule,
    GradedVector,
    HeisenbergAlgebra,
    dual_pairing,
)


class TrivialModule:
    """The one-dimensional module concentrated in grade zero."""

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


def heis(cutoff=30):
    return HeisenbergAlgebra(cutoff=cutoff)


def fock(alg, momentum=0):
    return FockModule(alg, momentum)


def st(space, mono, coef=1):
    return GradedVector.state(space, mono, coef)


def vac(space):
    return GradedVector.vacuum(space)


def rat(p, q=1):
    return Scalar.rational(p, q)


def full_mode_element(tw, u, n, w, wp):
    """<Y^g(u)_n w, w'> for arbitrary vectors, through the k-point oracle."""
    return tw._matrix_series(u, w, wp).coeff(-tw.kn_index(n) - tw.k)


def mode_support(tw, u, w, wp):
    """All n with <Y^g(u)_n w, w'> nonzero, from the oracle's generating series."""
    return sorted(-(e / tw.k) - 1 for e in tw._matrix_series(u, w, wp).terms)


def generator_mode_apply(tw, v, n, w):
    """Y^g(v (x) 1 ... (x) 1)_n w through the generator formula: the slot-0
    case of ``slot_mode_apply``, summed over the monomials of v."""
    out = GradedVector(tw.module)
    for vm, c in v.terms.items():
        out = out + tw.slot_mode_apply(vm, 0, n, w).scale(c)
    return out


def pair_field(alg, v, z0, x, wp, depth=28):
    """<Y(v, z0) x, wp>: exact, finite once paired against a bounded dual."""
    out = Scalar.integer(0)
    module = x.space
    for vm, vc in v.terms.items():
        for xm, xc in x.terms.items():
            top = alg.weight(vm) + module.weight(xm) - 1
            for n in range(top - depth, top + 1):
                res = alg.mode_mono(vm, n, xm, module)
                acted = GradedVector(module, {m: c * vc * xc for m, c in res.items()})
                out = out + dual_pairing(acted, wp) * z0 ** (-n - 1)
    return out

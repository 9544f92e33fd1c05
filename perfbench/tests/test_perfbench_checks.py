"""Every output check of the benchmark accepts the right value and rejects
a perturbed one: a coefficient off by 1/1000, a flipped sign, a missing
term, a wrong count.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository root.
"""

from fractions import Fraction

import pytest

import checks
import reference
import workloads
from voablocks import sewing, twist, voa
from voablocks.scalars import Scalar
from voablocks.voa import GradedVector

OFF = Fraction(1, 1000)


def perturbed(coefs: dict):
    """Copies of a {key: coefficient} map with one entry changed each way."""
    key = sorted(coefs, key=repr)[0]
    value = coefs[key]
    shifted = dict(coefs)
    shifted[key] = value + OFF if not isinstance(value, tuple) else value[:2] + (
        (value[2][0] + OFF,) + value[2][1:],)
    flipped = dict(coefs)
    flipped[key] = -value if not isinstance(value, tuple) else value[:2] + (
        tuple(-c for c in value[2]),)
    dropped = dict(coefs)
    del dropped[key]
    return [shifted, flipped, dropped]


@pytest.fixture
def bench(tmp_path):
    return {name: cls(0, str(tmp_path)) for name, cls in workloads.WORKLOADS.items()}


def problems(gen):
    return [message for _, message in gen if message is not None]


# ---- the references themselves ------------------------------------------


def test_reference_values_by_hand():
    assert reference.jacobi_triple_count(2) == 64
    assert reference.jacobi_triple_count(3) == 343
    assert reference.vertex_mode((1,), 1, (1,)) == {(): 1}
    assert reference.vertex_mode((1,), -1, ()) == {(1,): 1}
    assert reference.vertex_mode((1, 1), 1, (), Fraction(1, 2)) == {(): Fraction(1, 4)}
    assert reference.cyclotomic(2, 1, Fraction(1)) == -1
    assert reference.cyclotomic(3, 1, Fraction(1)) == ("cyc", 3, (0, 1))
    assert reference.cyclotomic(3, 2, Fraction(2)) == ("cyc", 3, (-2, -2))
    assert reference.sew_series(5) == {0: -2, 3: 1, 4: 2, 5: 3}
    assert reference.two_point(1, 2) == 1
    assert reference.four_point((1, 2, 4, 8)) == Fraction(1, 16) + Fraction(1, 324) + Fraction(1, 196)


# ---- generic checks -------------------------------------------------------


def test_exact_and_coefficients():
    good = {(1,): Fraction(1, 2), (2, 1): Fraction(-3)}
    assert checks.exact(good, dict(good)) is None
    assert checks.coefficients(good, dict(good)) is None
    assert checks.coefficients({**good, (3,): Fraction(0)}, good) is None
    for bad in perturbed(good):
        assert checks.exact(bad, good) is not None
        assert checks.coefficients(bad, good) is not None


def test_below_and_relative_error():
    assert checks.below(1e-9, 1e-8, "error") is None
    assert checks.below(1e-8, 1e-8, "error") is not None
    assert checks.below(float("nan"), 1e-8, "error") is not None
    assert checks.relative_error(1.0, 1.0 + 1e-10, 1e-8) is None
    assert checks.relative_error(1.001, 1.0, 1e-8) is not None
    assert checks.relative_error(-1.0, 1.0, 1e-8) is not None
    assert checks.relative_error(1.0, 0.0, 1e-8) is not None


def test_holds():
    assert checks.holds(True, "x") is None
    for bad in (False, None, 1):
        assert checks.holds(bad, "x") is not None


def test_jacobi_report():
    good = "triples\tindex_bound\tfailures\n64\t3\t0\n"
    assert checks.jacobi_report(0, good, 64, 3) is None
    assert checks.jacobi_report(1, good, 64, 3) is not None
    assert checks.jacobi_report(0, good, 63, 3) is not None
    assert checks.jacobi_report(0, good.replace("\t0\n", "\t1\n"), 64, 3) is not None
    assert checks.jacobi_report(0, good + "# FAIL\t((1,), (1,), ())\n", 64, 3) is not None
    assert checks.jacobi_report(0, "", 64, 3) is not None


def test_same_pass():
    cold = [("op", (1,), Fraction(1)), ("op", (2,), ("series", {0: Fraction(2)}, None))]
    assert checks.same_pass(cold, list(cold)) is None
    assert checks.same_pass(cold, cold[:1]) is not None
    warm = [cold[0], ("op", (2,), ("series", {0: Fraction(2) + OFF}, None))]
    assert checks.same_pass(cold, warm) is not None


# ---- the workload checks, on real program output -----------------------------


def test_jacobi_sweep_mode_check(bench):
    wl = bench["jacobi-sweep"]
    H = voa.HeisenbergAlgebra(cutoff=20)
    for space, um, n, xm in (("V", (1, 1), 1, (1,)), ("W", (2,), -1, (1,)), ("W", (3,), 4, (2, 1))):
        target = H if space == "V" else voa.FockModule(H, 0)
        out = workloads.canon(voa.mode_action(GradedVector.state(H, um), n, GradedVector.state(target, xm)))
        assert out and not problems(wl.check_mode((space, um, n, xm), out))
        for bad in perturbed(out):
            assert problems(wl.check_mode((space, um, n, xm), bad))


def test_jacobi_sweep_report_check(bench):
    wl = bench["jacobi-sweep"]
    good = (0, "triples\tindex_bound\tfailures\n64\t3\t0\n")
    assert not problems(wl.check_jacobi_check((2, 3), good))
    assert problems(wl.check_jacobi_check((3, 3), good))
    assert problems(wl.check_jacobi_check((2, 3), (1, good[1])))


def test_twisted_weight_one_check(bench):
    wl = bench["twisted-modules"]
    H = voa.HeisenbergAlgebra(cutoff=12)
    W = voa.FockModule(H, 0)
    a, vac = GradedVector.state(H, (1,)), GradedVector.vacuum(H)
    tw = twist.TwistedModule(W, 3)
    u = voa.tensor_vector(tw.tensor, [vac, a, vac])
    for m, wm in ((1, (1, 1)), (-2, (2,)), (2, (2,))):
        inp = (3, 1, m, wm)
        out = workloads.canon(tw.mode_apply(u, Fraction(m, 3), GradedVector.state(W, wm)))
        assert out and not problems(wl.check_weight_one(inp, out))
        for bad in perturbed(out):
            assert problems(wl.check_weight_one(inp, bad))
        # the same value read as the slot-0 mode has the wrong phase
        assert problems(wl.check_weight_one((3, 0, m, wm), out))


def test_twisted_flag_and_factorization_checks(bench):
    wl = bench["twisted-modules"]
    for name in ("grading", "equivariance", "jacobi"):
        check = getattr(wl, "check_" + name)
        assert not problems(check((2,), True))
        assert problems(check((2,), False))
    assert not problems(wl.check_factorization((0, 0), (1e-11, Fraction(3, 4))))
    assert problems(wl.check_factorization((0, 0), (1e-6, Fraction(3, 4))))
    assert problems(wl.check_factorization((0, 0), (1e-11, Fraction(0))))


def test_twisted_path_agreement_check(bench):
    wl = bench["twisted-modules"]
    series = ("series", {Fraction(-2): Fraction(1, 2), Fraction(0): Fraction(-1)}, None)
    item = ((1,), (), (1,))
    assert not problems(wl.check_path_agreement((2,), ((item, series, series),)))
    for bad in perturbed(series[1]):
        assert problems(wl.check_path_agreement((2,), ((item, series, ("series", bad, None)),)))


def test_linearity_counts_each_wrong_multiple(bench):
    wl = bench["twisted-modules"]
    base = {Fraction(-2): Fraction(1, 2)}

    def results(terms_of_c):
        return [("linearity", (2, c), ("series", terms_of_c(c), None)) for c in wl.LINEARITY]

    right = results(lambda c: {e: v * c for e, v in base.items()})
    assert wl.verify(right) == ([], 0)
    # the cached -1 result handed back for -2
    collided = results(lambda c: {e: v * (-1 if c == -2 else c) for e, v in base.items()})
    assert wl.verify(collided) == ([], 1)
    off = results(lambda c: {e: v * c + (OFF if c == 3 else 0) for e, v in base.items()})
    assert wl.verify(off) == ([], 1)


def test_propagation_check(bench):
    wl = bench["propagate-sew"]
    zs = (Fraction(1), Fraction(-2), Fraction(4), Fraction(-8))
    exact = reference.four_point(zs)
    assert not problems(wl.check_propagation(zs, (exact * (1 + Fraction(1, 10**10)), exact)))
    assert problems(wl.check_propagation(zs, (exact * (1 + OFF), exact)))
    assert problems(wl.check_propagation(zs, (exact, exact + OFF)))
    assert problems(wl.check_propagation(zs, (-exact, exact)))
    assert problems(wl.check_propagation(zs, (exact, -exact)))


def test_commutation_check(bench):
    wl = bench["propagate-sew"]
    H = voa.HeisenbergAlgebra(cutoff=16)
    W = voa.FockModule(H, 0)
    a = GradedVector.state(H, (1,))
    w, wp = GradedVector.state(W, (1,)), GradedVector.state(voa.dual_of(W), (1,))
    third, two = Scalar.rational(1, 3), Scalar.integer(2)
    out = workloads.canon(sewing.sew_propagate_commute_check([a], [third], [a], [two], w, wp, 4, 12))
    inp = (2, (Fraction(1, 3),), (Fraction(2),))
    assert not problems(wl.check_commutation(inp, out))
    ok, disc, lhs, rhs = out
    for bad in perturbed(rhs[1]):
        assert problems(wl.check_commutation(inp, (ok, disc, lhs, ("series", bad, rhs[2]))))
    assert problems(wl.check_commutation(inp, (False, disc, lhs, rhs)))
    assert problems(wl.check_commutation(inp, (ok, 1e-3, lhs, rhs)))


def test_sew_check(bench):
    wl = bench["propagate-sew"]
    out = workloads.canon(wl._sew_call(8)())
    assert not problems(wl.check_sew((8,), out))
    for bad in perturbed(out[1]):
        assert problems(wl.check_sew((8,), ("series", bad, out[2])))
    assert problems(wl.check_sew((8,), ("series", out[1], None)))
    assert problems(wl.check_sew((9,), out))

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances and runtime budgets are pinned here and nowhere else.
"""

import itertools
import random
import time
from fractions import Fraction

from support import fock, heis, rat, st, vac
from voablocks.blocks import (
    INF,
    heisenberg_correlator,
    propagate_eval,
    propagate_expand,
    reconstruct_global,
    residue_criterion,
)
from voablocks.cli import main as cli_main
from voablocks.coordchange import (
    CoordChange,
    apply_coord_change,
    compose,
    solve_coefficients,
    taylor_coefficients,
)
from voablocks.scalars import Scalar
from voablocks.series import FracLaurent
from voablocks.sewing import sew_propagate_commute_check
from voablocks.twist import (
    TwistedModule,
    check_equivariance,
    check_grading,
    check_jacobi,
    factorization_check,
)
from voablocks.voa import GradedVector, dual_of, jacobi_difference, mode_action, tensor_vector


def _report(number, name, ok, elapsed):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {verdict} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_u_homomorphism():
    t0 = time.time()
    H = heis(20)
    rng = random.Random(101)
    ok = True
    for _ in range(50):
        r1 = CoordChange(
            Scalar.rational(rng.randint(1, 4), rng.randint(1, 3)),
            [Scalar.rational(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(7)],
        )
        r2 = CoordChange(
            Scalar.rational(rng.randint(1, 4), rng.randint(1, 3)),
            [Scalar.rational(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(7)],
        )
        g = rng.randint(0, 4)
        w = st(H, rng.choice(H.basis(g)))
        lhs = apply_coord_change(compose(r1, r2, 8), w)
        rhs = apply_coord_change(r1, apply_coord_change(r2, w))
        ok = ok and (lhs - rhs).is_zero()
    elapsed = time.time() - t0
    _report(1, "U-homomorphism, 50 random pairs", ok and elapsed < 10.0, elapsed)


def test_criterion_2_solver_round_trip():
    t0 = time.time()
    rng = random.Random(202)
    ok = True
    for _ in range(100):
        c0 = Scalar.rational(rng.randint(1, 6), rng.randint(1, 5))
        cs = [Scalar.rational(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(9)]
        rho = CoordChange(c0, cs)
        back = solve_coefficients(taylor_coefficients(rho, 10))
        ok = ok and back == rho
    _report(2, "coefficient-solver round trip x100", ok, time.time() - t0)


def test_criterion_3_untwisted_jacobi():
    t0 = time.time()
    H = heis(20)
    W = fock(H, 0)
    ok = True
    monos = [m for g in range(0, 4) for m in H.basis(g)]
    for um, vm, wm in itertools.product(monos, monos, monos):
        u, v, w = st(H, um), st(H, vm), GradedVector.state(W, wm)
        for m in range(-3, 4):
            for n in range(-3, 4):
                for h in range(-3, 4):
                    if not jacobi_difference(mode_action, u, v, w, m, n, h).is_zero():
                        ok = False
    elapsed = time.time() - t0
    _report(3, "untwisted Jacobi, grade<=3, |m|,|n|,|h|<=3", ok and elapsed < 60.0, elapsed)


def test_criterion_4_propagation_oracle_equivalence():
    t0 = time.time()
    H = heis(44)
    W = fock(H, 0)
    WD = dual_of(W)
    a = st(H, (1,))
    vw, vp = vac(W), vac(WD)
    ok = True
    # numeric agreement at grade cutoff 40, moduli ratios <= 1/2
    for vs, zs in (
        ([a, a], [rat(1), rat(2)]),
        ([a, a], [rat(1, 2), rat(3, 2)]),
        ([a, a, a, a], [rat(1), rat(2), rat(4), rat(8)]),
        ([a, a, a, a], [rat(1, 3), rat(2, 3), rat(3, 2), rat(3)]),
    ):
        oracle = heisenberg_correlator(vs, vw, vp).evaluate(dict(enumerate(zs)))
        res = propagate_eval(vs, zs, vw, vp, cutoff=40)
        rel = abs(res.value.to_complex() - oracle.to_complex()) / abs(oracle.to_complex())
        ok = ok and rel < 1e-8

    # exact coefficient-wise agreement of the chamber expansions through
    # total degree 10 (intermediate shells <= 13 cover it)
    def complete(key, wts, cap):
        g = 0
        for i in range(len(key)):
            g += wts[i] + key[i]
            if not (0 <= g <= cap):
                return False
        return True

    for vs, wts in (([a, a], [1, 1]), ([a, a, a, a], [1, 1, 1, 1])):
        cap = 13
        cham = heisenberg_correlator(vs, vw, vp).expand_chamber(list(range(len(vs))), max_m=cap + 6)
        prop = propagate_expand(vs, vw, vp, shell_cap=cap)
        seen = 0
        for key, c in prop.items():
            if complete(key, wts, cap) and sum(abs(e) for e in key[:-1]) <= 10:
                match = key in cham and (cham[key] - c).is_zero()
                ok = ok and match
                seen += 1
        for key, c in cham.items():
            if complete(key, wts, cap) and sum(abs(e) for e in key[:-1]) <= 10:
                ok = ok and (key in prop or c.is_zero())
        ok = ok and seen >= 10
    _report(4, "propagation vs Wick oracle", ok, time.time() - t0)


def test_criterion_5_strong_residue_fixtures():
    t0 = time.time()
    one = FracLaurent("z", 1, {0: 1}, trunc=8)
    onez = FracLaurent("z", 1, {0: 1, 1: 1}, trunc=8)
    s0 = FracLaurent("z", 1, {-1: 1}, trunc=8)
    sinf = FracLaurent("z", 1, {1: 1}, trunc=8)
    ok = residue_criterion([0, INF], [[one], [one]], 2, 4)
    ok = ok and not residue_criterion([0, INF], [[one], [onez]], 2, 4)
    ok = ok and residue_criterion([0, INF], [[s0], [sinf]], 2, 4)
    for marked, data in (
        ([0, INF], [[one], [one]]),
        ([0, INF], [[s0], [sinf]]),
    ):
        sec = reconstruct_global(marked, data, 2)
        ok = ok and sec is not None
        if sec is not None:
            for j in range(len(marked)):
                ok = ok and sec.expand_at(j, 8)[0] == data[j][0].truncate(8)
    ok = ok and reconstruct_global([0, INF], [[one], [onez]], 2) is None
    _report(5, "strong residue criterion fixtures", ok, time.time() - t0)


def test_criterion_6_sewing_propagation_commutation():
    t0 = time.time()
    H = heis(30)
    W = fock(H, 0)
    WD = dual_of(W)
    a = st(H, (1,))
    u2 = st(H, (2,))
    w, wp = st(W, (1,)), st(WD, (1,))
    ok = True
    cases = [
        ([], [], [], []),                                  # n = 0
        ([a], [rat(1, 3)], [], []),                        # n = 1 (first sphere)
        ([], [], [a], [rat(3, 2)]),                        # n = 1 (second sphere)
        ([a], [rat(1, 3)], [a], [rat(3, 2)]),              # n = 2
        ([u2], [rat(1, 4)], [a], [rat(2)]),                # n = 2, descendant
    ]
    for vs_a, za, vs_b, zb in cases:
        got, disc, lhs, rhs = sew_propagate_commute_check(
            vs_a, za, vs_b, zb, w, wp, q_cutoff=8, grade_cutoff=24
        )
        ok = ok and got and disc == 0.0
    elapsed = time.time() - t0
    _report(6, "sewing commutes with propagation (q^8, L=24)", ok and elapsed < 300.0, elapsed)


def test_criterion_7_twisted_module_axioms():
    t0 = time.time()
    H = heis(30)
    W = fock(H, 0)
    WD = dual_of(W)
    a = st(H, (1,))
    vc = vac(H)
    ok = True
    for k in (2, 3):
        tw = TwistedModule(W, k)
        gen_vecs = [
            tensor_vector(tw.tensor, [st(H, m)] + [vc] * (k - 1))
            for g in range(1, 5)
            for m in H.basis(g)
        ]
        states = [st(W, m) for g in range(0, 3) for m in W.basis(g)]
        ns = [Fraction(m, k) for m in range(-2 * k, 2 * k + 1)]
        ok = ok and check_grading(tw, gen_vecs, states, ns)
        w_monos = [m for g in range(0, 3) for m in W.basis(g)]
        ok = ok and check_equivariance(tw, gen_vecs, w_monos, w_monos)
        # catalogued twisted Jacobi sample
        u = tensor_vector(tw.tensor, [a] + [vc] * (k - 1))
        hs = [Fraction(x, k) for x in range(-3 * k, 3 * k + 1)]
        for pg in range(0, 4):
            for pm in W.basis(pg):
                okx, _ = check_jacobi(
                    tw, u, u, vac(W), st(WD, pm), range(-3, 4), range(-3, 4), hs
                )
                ok = ok and okx
        # the two construction paths produce identical mode tables
        for g in range(0, 5):
            for vm in H.basis(g):
                v = st(H, vm)
                vt = tensor_vector(tw.tensor, [v] + [vc] * (k - 1))
                for wg in range(0, 3):
                    for wm in W.basis(wg):
                        for pg in range(0, 3):
                            for pm in W.basis(pg):
                                s1 = tw.generator_series(v, wm, pm).drop_truncation()
                                s2 = tw.pairing_series(vt, wm, pm).drop_truncation()
                                ok = ok and s1 == s2
    _report(7, "twisted-module axioms (k=2,3)", ok, time.time() - t0)


def test_criterion_8_factorization_convergence():
    t0 = time.time()
    H = heis(44)
    W = fock(H, 0)
    WD = dual_of(W)
    a = st(H, (1,))
    vc = vac(H)
    tw = TwistedModule(W, 2)
    ok = True
    for s_z, s_xi in (
        (rat(1, 4), rat(1, 2)),
        (rat(1, 2), rat(1)),
        (rat(1, 3), rat(1)),
    ):
        rel, total, oracle, _ = factorization_check(
            tw, [a, vc], [a, vc], st(W, (1,)), st(WD, (1,)), s_z, s_xi, shell_cutoff=40
        )
        ok = ok and rel < 1e-8 and not oracle.is_zero()
    _report(8, "factorization convergence (shell 40)", ok, time.time() - t0)


def test_criterion_9_thread_determinism(tmp_path):
    t0 = time.time()
    import json

    cc = {
        "subcommand": "commute-check",
        "cutoffs": {"L": 24, "N": 6},
        "params": {
            "insertions_a": [[{"monomial": [1]}]],
            "points_a": ["1/3"],
            "insertions_b": [[{"monomial": [1]}]],
            "points_b": ["3/2"],
            "w": [{"monomial": [1]}],
            "wp": [{"monomial": [1]}],
        },
    }
    cc_path = tmp_path / "cc.json"
    cc_path.write_text(json.dumps(cc))
    suite = [
        ("uc-solve", ["uc-solve", "--taylor", "1,1,1,1,1/2"]),
        ("residue", ["residue-check"]),
        ("sew", ["sew", "--cutoff-q", "6"]),
        ("commute", ["commute-check", "--config", str(cc_path)]),
        ("twist", ["twist-check", "--k", "2", "--grade", "2"]),
        ("jacobi", ["jacobi-check", "--grade", "2", "--cutoff-grade", "16"]),
    ]
    ok = True
    for name, args in suite:
        outputs = []
        for threads in (1, 4, 8):
            out = tmp_path / f"{name}-{threads}.out"
            status = cli_main(args + ["--threads", str(threads), "--out", str(out)])
            ok = ok and status == 0
            outputs.append(out.read_bytes())
        ok = ok and outputs[0] == outputs[1] == outputs[2]
    _report(9, "byte-identical output across 1/4/8 threads", ok, time.time() - t0)

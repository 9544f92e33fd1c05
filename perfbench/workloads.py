"""The benchmark workloads.

A workload builds its inputs in ``setup`` from the seed, as a list of
operations ``(name, input, call)``.  One pass runs every call once, in
order; the runner times passes and converts each output with ``canon`` to
plain exact values, and ``verify`` checks one converted pass.  Calls go
through module attributes (``blocks.propagate_eval``), so the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

from voablocks import blocks, cli, sewing, twist, voa
from voablocks.scalars import Scalar
from voablocks.series import FracLaurent
from voablocks.voa import GradedVector

import checks

TOL = 1e-8  # relative error allowed where a truncated sum meets an exact value


def canon(value):
    """Program values as plain Python: Fraction for rationals,
    ("cyc", k, coordinates) for cyclotomics, ("series", {exp: coef}, trunc)
    for Laurent series and {monomial: coef} for graded vectors."""
    if isinstance(value, Scalar):
        data = value.to_json()
        if "rat" in data:
            return Fraction(*data["rat"])
        if "cyc" in data:
            cyc = data["cyc"]
            return ("cyc", cyc["k"], tuple(Fraction(p, q) for p, q in cyc["vec"]))
        return complex(*data["float"])
    if isinstance(value, FracLaurent):
        return ("series", {e: canon(c) for e, c in value.terms.items()}, value.trunc)
    if isinstance(value, GradedVector):
        return {m: canon(c) for m, c in value.terms.items()}
    if isinstance(value, (tuple, list)):
        return tuple(canon(v) for v in value)
    return value


def _signed(rng, values):
    return [rng.choice((1, -1)) * Fraction(v) for v in values]


def _rat(x):
    return Scalar.from_fraction(Fraction(x))


class Workload:
    name = None

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.ops = []

    def setup(self):
        raise NotImplementedError

    def verify(self, results):
        """Check one converted pass.  Returns (problems, failed): problems
        are (check, input, message) triples that make the run incorrect;
        failed counts operations that fail because of a known fault."""
        problems = []
        for name, inp, out in results:
            for check, message in getattr(self, "check_" + name.replace("-", "_"))(inp, out):
                if message is not None:
                    problems.append((check, inp, message))
        return problems, 0

    def cleanup(self):
        pass


# ---------------------------------------------------------------------------


class JacobiSweep(Workload):
    """A slice of the untwisted Borcherds sweep through ``jacobi-check``
    with two threads, and a sample of the sweep's modes through the library.
    """

    name = "jacobi-sweep"
    SLICES = ((3, 1),)  # (grade, index bound) of each jacobi-check call
    CUTOFF = 20
    SAMPLES = 48

    def setup(self):
        H = voa.HeisenbergAlgebra(cutoff=self.CUTOFF)
        W = voa.FockModule(H, 0)
        self.configs = []
        for grade, bound in self.SLICES:
            path = os.path.join(self.workdir, f"jacobi-{grade}-{bound}-{os.getpid()}.json")
            with open(path, "w") as fh:
                json.dump(
                    {
                        "subcommand": "jacobi-check",
                        "cutoffs": {"L": self.CUTOFF},
                        "params": {"grade": grade, "index_bound": bound},
                    },
                    fh,
                )
            self.configs.append(path)
            self.ops.append(("jacobi-check", (grade, bound), self._cli_call(path)))
        # modes Y(u)_n x the sweep evaluates: u of grade <= 3, x in the
        # algebra (adjoint) or in the Fock module, |n| within the sweep's reach
        top = max(g for g, _ in self.SLICES)
        monos = [m for g in range(top + 1) for m in H.basis(g)]
        pool = [
            (space, um, n, xm)
            for space in ("V", "W")
            for um in monos
            if um
            for xm in monos
            for n in range(-4, 7)
            if 0 <= sum(um) + sum(xm) - n - 1 <= self.CUTOFF
        ]
        for space, um, n, xm in self.rng.sample(pool, self.SAMPLES):
            target = H if space == "V" else W
            self.ops.append(("mode", (space, um, n, xm), self._mode_call(H, target, um, n, xm)))

    @staticmethod
    def _cli_call(path):
        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = cli.main(["jacobi-check", "--config", path, "--threads", "2"])
            return status, buf.getvalue()

        return call

    @staticmethod
    def _mode_call(H, target, um, n, xm):
        u = GradedVector.state(H, um)
        x = GradedVector.state(target, xm)
        return lambda: voa.mode_action(u, n, x)

    def check_jacobi_check(self, inp, out):
        import reference

        grade, bound = inp
        status, text = out
        yield "jacobi-report", checks.jacobi_report(
            status, text, reference.jacobi_triple_count(grade), bound
        )

    def check_mode(self, inp, out):
        import reference

        _, um, n, xm = inp
        yield "oscillator-modes", checks.coefficients(out, reference.vertex_mode(um, n, xm))

    def cleanup(self):
        for path in getattr(self, "configs", ()):
            if os.path.exists(path):
                os.remove(path)


# ---------------------------------------------------------------------------


class TwistedModules(Workload):
    """Criterion 7's four suites for k = 2, 3 on one Fock module, the
    weight-one modes, one factorization check at shell 40 and the
    linearity sweep of ``pairing_series``."""

    name = "twisted-modules"
    KS = (2, 3)
    JACOBI_OUT = 2  # sampled out-states of grade <= 3 per k
    WEIGHT_ONE = 12  # sampled weight-one modes per k
    LINEARITY = (1, -1, -2, 2, 3, -3)
    FACTORIZATION_POINTS = ((Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)),
                            (Fraction(1, 3), Fraction(1)), (Fraction(1, 3), Fraction(2, 3)))

    def setup(self):
        rng = self.rng
        H = voa.HeisenbergAlgebra(cutoff=30)
        W = voa.FockModule(H, 0)
        WD = voa.dual_of(W)
        a, vac = GradedVector.state(H, (1,)), GradedVector.vacuum(H)
        low = [m for g in range(3) for m in W.basis(g)]  # grades 0..2
        for k in self.KS:
            tw = twist.TwistedModule(W, k)
            T = tw.tensor

            def slot_vec(v, slot=0, k=k, T=T):
                factors = [vac] * k
                factors[slot] = v
                return voa.tensor_vector(T, factors)

            # criterion 7's module states and mode indices with the generator
            # states of grades 1..3; the seed picks the Jacobi out-states
            gen_vecs = [slot_vec(GradedVector.state(H, m)) for g in range(1, 4) for m in H.basis(g)]
            states = [GradedVector.state(W, m) for m in low]
            ns = [Fraction(m, k) for m in range(-2 * k, 2 * k + 1)]
            self.ops.append(("grading", (k,),
                             lambda tw=tw, g=gen_vecs, s=states, ns=ns: twist.check_grading(tw, g, s, ns)))
            self.ops.append(("equivariance", (k,),
                             lambda tw=tw, g=gen_vecs: twist.check_equivariance(tw, g, low, low)))
            u = slot_vec(a)
            hs = [Fraction(x, k) for x in range(-3 * k, 3 * k + 1)]
            for pm in rng.sample([m for g in range(4) for m in W.basis(g)], self.JACOBI_OUT):
                wp = GradedVector.state(WD, pm)
                self.ops.append((
                    "jacobi", (k, pm),
                    lambda tw=tw, u=u, wp=wp, hs=hs: twist.check_jacobi(
                        tw, u, u, GradedVector.vacuum(W), wp, range(-2, 3), range(-2, 3), hs)[0],
                ))
            self.ops.append(("path-agreement", (k,), self._paths_call(tw, H, W, slot_vec)))
            pool = [(slot, m, wm) for slot in range(k) for m in range(-2 * k, 2 * k + 1)
                    for wm in W.basis(2) + W.basis(3)]
            for slot, m, wm in rng.sample(pool, self.WEIGHT_ONE):
                self.ops.append((
                    "weight-one", (k, slot, m, wm),
                    lambda tw=tw, u=slot_vec(a, slot), n=Fraction(m, k), w=GradedVector.state(W, wm):
                        tw.mode_apply(u, n, w),
                ))
            # the linearity sweep runs on a module of its own, so its
            # series cache holds nothing but this sweep, in this order
            lin = twist.TwistedModule(W, k)
            lin_u = voa.tensor_vector(lin.tensor, [a] + [vac] * (k - 1))
            for c in self.LINEARITY:
                self.ops.append((
                    "linearity", (k, c),
                    lambda lin=lin, v=lin_u.scale(Scalar.integer(c)): lin.pairing_series(v, (1,), ()),
                ))
        H44 = voa.HeisenbergAlgebra(cutoff=44)
        W44 = voa.FockModule(H44, 0)
        tw2 = twist.TwistedModule(W44, 2)
        a44, vac44 = GradedVector.state(H44, (1,)), GradedVector.vacuum(H44)
        w, wp = GradedVector.state(W44, (1,)), GradedVector.state(voa.dual_of(W44), (1,))
        s_z, s_xi = rng.choice(self.FACTORIZATION_POINTS)
        self.ops.append((
            "factorization", (s_z, s_xi),
            lambda: twist.factorization_check(
                tw2, [a44, vac44], [a44, vac44], w, wp, _rat(s_z), _rat(s_xi), shell_cutoff=40)[:3:2],
        ))

    @staticmethod
    def _paths_call(tw, H, W, slot_vec):
        items = [
            (vm, wm, pm)
            for g in range(5) for vm in H.basis(g)
            for wm in (m for wg in range(3) for m in W.basis(wg))
            for pm in (m for pg in range(3) for m in W.basis(pg))
        ]

        def call():
            out = []
            for vm, wm, pm in items:
                v = GradedVector.state(H, vm)
                out.append((
                    (vm, wm, pm),
                    tw.generator_series(v, wm, pm).drop_truncation(),
                    tw.pairing_series(slot_vec(v), wm, pm).drop_truncation(),
                ))
            return out

        return call

    def check_grading(self, inp, out):
        yield "grading", checks.holds(out, "check_grading")

    def check_equivariance(self, inp, out):
        yield "equivariance", checks.holds(out, "check_equivariance")

    def check_jacobi(self, inp, out):
        yield "twisted-jacobi", checks.holds(out, "check_jacobi")

    def check_path_agreement(self, inp, out):
        for item, generator, k_point in out:
            problem = checks.exact(generator, k_point)
            if problem is not None:
                yield "path-agreement", f"{item}: {problem}"
                return
        yield "path-agreement", None

    def check_weight_one(self, inp, out):
        import reference

        yield "weight-one-modes", checks.coefficients(out, reference.twisted_weight_one(*inp))

    def check_factorization(self, inp, out):
        rel, oracle = out
        yield "factorization-error", checks.below(rel, TOL, "relative error")
        yield "factorization-oracle", None if oracle != 0 else "oracle value is zero"

    def check_linearity(self, inp, out):
        return ()  # compared against the c = 1 series in verify

    def verify(self, results):
        problems, _ = super().verify(results)
        base = {inp[0]: out for name, inp, out in results if name == "linearity" and inp[1] == 1}
        failed = 0
        for name, (k, c), out in (r for r in results if r[0] == "linearity"):
            _, terms, trunc = base[k]
            want = ("series", {e: v * c for e, v in terms.items()}, trunc)
            if c != 1 and checks.exact(out, want) is not None:
                failed += 1  # the known twist._vec_key collision, counted
        return problems, failed


# ---------------------------------------------------------------------------


class PropagateSew(Workload):
    """Criterion 4's propagation-vs-oracle cases at grade cutoff 40,
    criterion 6's five commutation cases and the default ``sew`` series."""

    name = "propagate-sew"
    PROPAGATION_POINTS = (
        (1, 2), (Fraction(1, 2), Fraction(3, 2)),
        (1, 2, 4, 8), (Fraction(1, 3), Fraction(2, 3), Fraction(3, 2), 3),
    )
    SEW_Q = 16

    def setup(self):
        rng = self.rng
        H = voa.HeisenbergAlgebra(cutoff=44)
        W = voa.FockModule(H, 0)
        a = GradedVector.state(H, (1,))
        vw, vp = GradedVector.vacuum(W), GradedVector.vacuum(voa.dual_of(W))
        for points in self.PROPAGATION_POINTS:
            zs = _signed(rng, points)
            vs = [a] * len(zs)
            self.ops.append((
                "propagation", tuple(zs),
                lambda vs=vs, zs=[_rat(z) for z in zs]: (
                    blocks.propagate_eval(vs, zs, vw, vp, cutoff=40).value,
                    blocks.heisenberg_correlator(vs, vw, vp).evaluate(dict(enumerate(zs))),
                ),
            ))
        H30 = voa.HeisenbergAlgebra(cutoff=30)
        W30 = voa.FockModule(H30, 0)
        a30, u2 = GradedVector.state(H30, (1,)), GradedVector.state(H30, (2,))
        w, wp = GradedVector.state(W30, (1,)), GradedVector.state(voa.dual_of(W30), (1,))
        za, zb = _signed(rng, (Fraction(1, 3), Fraction(1, 4))), _signed(rng, (Fraction(3, 2), 2))
        cases = (
            ((), (), (), ()),
            ((a30,), (za[0],), (), ()),
            ((), (), (a30,), (zb[0],)),
            ((a30,), (za[0],), (a30,), (zb[0],)),
            ((u2,), (za[1],), (a30,), (zb[1],)),
        )
        for vs_a, pa, vs_b, pb in cases:
            self.ops.append((
                "commutation", (len(vs_a) + len(vs_b), pa, pb),
                lambda vs_a=vs_a, pa=pa, vs_b=vs_b, pb=pb: sewing.sew_propagate_commute_check(
                    list(vs_a), [_rat(z) for z in pa], list(vs_b), [_rat(z) for z in pb],
                    w, wp, q_cutoff=8, grade_cutoff=24),
            ))
        self.ops.append(("sew", (self.SEW_Q,), self._sew_call(self.SEW_Q)))

    @staticmethod
    def _sew_call(q_cutoff):
        # the block of the CLI's default `sew`: the pairing block against w'
        # times the one-point block of u = a_{-2}|0> on w = a_{-1}|0>
        L = 24
        H = voa.HeisenbergAlgebra(cutoff=L)
        W = voa.FockModule(H, 0)
        Wd = voa.dual_of(W)
        um, wm = (2,), (1,)
        wp = GradedVector(Wd, {m: Scalar.integer(1) for g in range(q_cutoff + 1) for m in Wd.basis(g)})
        top = H.weight(um) + W.weight(wm) - 1

        def block(m, md):
            total = voa.dual_pairing(m, wp)
            if total.is_zero():
                return total
            inner = Scalar.integer(0)
            for n in range(top - L, top + 1):
                acted = GradedVector(W, H.mode_mono(um, n, wm, W))
                inner = inner + voa.dual_pairing(acted, md)
            return total * inner

        return lambda: sewing.sew(block, W, q_cutoff)

    def check_propagation(self, inp, out):
        import reference

        value, oracle = out
        closed = reference.free_boson_correlator(inp)
        yield "oracle-closed-form", checks.exact(oracle, closed)
        yield "propagation-vs-oracle", checks.relative_error(complex(value), complex(closed), TOL)

    def check_commutation(self, inp, out):
        ok, disc, lhs, rhs = out
        yield "commutation-flag", checks.holds(ok, "sew_propagate_commute_check")
        yield "commutation-discrepancy", checks.exact(disc, 0.0)
        yield "commutation-sides", checks.exact(lhs, rhs)

    def check_sew(self, inp, out):
        import reference

        (q_cutoff,) = inp
        _, terms, trunc = out
        yield "sew-closed-form", checks.coefficients(terms, reference.sew_series(q_cutoff))
        yield "sew-truncation", checks.exact(trunc, q_cutoff + 1)


WORKLOADS = {cls.name: cls for cls in (JacobiSweep, TwistedModules, PropagateSew)}

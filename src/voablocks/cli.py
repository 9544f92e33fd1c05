"""Batch driver: every experiment as a subcommand with declarative JSON
configuration and machine-readable TSV/JSON output.

Exact values print as p/q (cyclotomics as coefficient vectors); float mode
converts the exact results on output.  Experiment items run one after
another in a fixed (sorted) order; ``threads`` is accepted and validated but
does not change the run, so output is byte-identical for any thread count.
Exit status is nonzero whenever a checked identity fails.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from .blocks import (
    INF,
    _apply_field,
    heisenberg_correlator,
    propagate_eval,
    reconstruct_global,
    residue_criterion,
)
from .coordchange import solve_coefficients
from .scalars import MAX_CYCLOTOMIC_ORDER, Scalar, ScalarError
from .series import FracLaurent
from .sewing import sew, sew_propagate_commute_check
from .twist import TwistedModule, check_equivariance, check_grading, check_jacobi
from .voa import (
    CutoffOverflow,
    FockModule,
    GradedVector,
    HeisenbergAlgebra,
    dual_of,
    dual_pairing,
    jacobi_sweep,
    mode_action,
    tensor_vector,
)

class ConfigError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


def _parse_rational(value, path):
    try:
        if isinstance(value, str):
            return Fraction(value)
        if type(value) is int:  # a JSON true or false is no number
            return Fraction(value)
        if isinstance(value, list) and len(value) == 2 and all(type(x) is int for x in value):
            return Fraction(value[0], value[1])
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(path, str(exc))
    raise ConfigError(path, f"expected a rational, got {value!r}")


def _json_list(value, path):
    if not isinstance(value, list):
        raise ConfigError(path, "must be a list")
    return value


def _scalar_json(value, mode: str):
    scalar = Scalar._coerce(value)  # a stored value may be an int or Fraction
    if mode == "float":
        z = scalar.to_complex()
        return {"float": [z.real, z.imag]}
    return scalar.to_json()


def _fmt(value, mode: str) -> str:
    scalar = Scalar._coerce(value)
    if mode == "float":
        z = scalar.to_complex()
        return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}j"
    return str(scalar)


class RunConfig:
    """One run of a subcommand, as read from and written to a JSON config."""

    def __init__(
        self, subcommand, algebra=None, cutoffs=None, points=None, mode="exact", threads=1, out=None, params=None
    ):
        self.subcommand = subcommand
        self.algebra = {"kind": "heisenberg"} if algebra is None else algebra
        self.cutoffs = {"L": 24, "N": 8} if cutoffs is None else cutoffs
        self.points = [] if points is None else points
        self.mode = mode
        self.threads = threads
        self.out = out
        self.params = {} if params is None else params

    def to_json(self):
        return {
            "subcommand": self.subcommand,
            "algebra": self.algebra,
            "cutoffs": self.cutoffs,
            "points": self.points,
            "mode": self.mode,
            "threads": self.threads,
            "out": self.out,
            "params": self.params,
        }

    @staticmethod
    def from_json(obj) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config", "must be a JSON object")
        if "subcommand" not in obj:
            raise ConfigError("subcommand", "missing")
        known = {"subcommand", "algebra", "cutoffs", "points", "mode", "threads", "out", "params"}
        for key in obj:
            if key not in known:
                raise ConfigError(key, "unknown field")
        for key in ("algebra", "cutoffs", "params"):
            if not isinstance(obj.get(key, {}), dict):
                raise ConfigError(key, "must be a JSON object")
        cfg = RunConfig(subcommand=obj["subcommand"])
        cfg.algebra = obj.get("algebra", cfg.algebra)
        cfg.cutoffs = {**cfg.cutoffs, **obj.get("cutoffs", {})}
        cfg.points = obj.get("points", [])
        cfg.mode = obj.get("mode", "exact")
        cfg.threads = obj.get("threads", 1)
        cfg.out = obj.get("out")
        cfg.params = obj.get("params", {})
        for name, bound in (("L", 1), ("N", 0)):
            value = cfg.cutoffs.get(name, bound)
            if type(value) is not int or value < bound:
                raise ConfigError(f"cutoffs.{name}", "must be positive")
        if cfg.mode not in ("exact", "float"):
            raise ConfigError("mode", "must be 'exact' or 'float'")
        if type(cfg.threads) is not int or cfg.threads < 1:
            raise ConfigError("threads", "must be a positive integer")
        _json_list(cfg.points, "points")
        for name in ("grade", "index_bound", "pole_bound", "dual_pole_bound"):
            value = cfg.params.get(name, 0)
            if type(value) is not int or value < 0:
                raise ConfigError(f"params.{name}", "must be a non-negative integer")
        if not isinstance(cfg.params.get("expect", True), bool):
            raise ConfigError("params.expect", "must be true or false")
        ks = cfg.params.get("k", 1)
        ks = ks if isinstance(ks, list) else [ks]
        if not all(type(k) is int and 1 <= k <= MAX_CYCLOTOMIC_ORDER for k in ks):
            raise ConfigError("params.k", f"must be an integer from 1 to {MAX_CYCLOTOMIC_ORDER}")
        return cfg


def _vector_from_json(space, data, path):
    total = GradedVector(space)
    for i, entry in enumerate(_json_list(data, path)):
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}[{i}]", "must be a JSON object")
        if "monomial" not in entry:
            raise ConfigError(f"{path}[{i}].monomial", "missing")
        mono = entry["monomial"]
        if not isinstance(mono, list):
            raise ConfigError(f"{path}[{i}].monomial", "must be a list")
        try:
            term = GradedVector.state(space, mono)
        except ValueError as exc:
            raise ConfigError(f"{path}[{i}].monomial", str(exc))
        coef = entry.get("coeff", 1)
        if isinstance(coef, dict):
            try:
                coef = Scalar.from_json(coef)
            except ValueError as exc:
                raise ConfigError(f"{path}[{i}].coeff", str(exc))
        else:
            coef = _parse_rational(coef, f"{path}[{i}].coeff")
        total = total + term.scale(coef)
    return total


# ---------------------------------------------------------------------------
# subcommand implementations; each returns (exit_status, list of output lines)


def _run_uc_solve(cfg: RunConfig):
    if not cfg.params.get("taylor"):
        raise ConfigError("params.taylor", "missing Taylor coefficient list")
    taylor = _json_list(cfg.params["taylor"], "params.taylor")
    values = [_parse_rational(t, f"params.taylor[{i}]") for i, t in enumerate(taylor)]
    rho = solve_coefficients(values)
    lines = [f"c0\t{_fmt(rho.c0, cfg.mode)}"]
    for n in range(1, len(values)):
        lines.append(f"c{n}\t{_fmt(rho.coefficient(n), cfg.mode)}")
    return 0, lines


def _algebra_and_module(cfg):
    L = cfg.cutoffs["L"]
    kind = cfg.algebra.get("kind", "heisenberg")
    if kind != "heisenberg":
        raise ConfigError("algebra.kind", "only the Heisenberg algebra is wired to the CLI")
    alg = HeisenbergAlgebra(cutoff=L)
    momentum = _parse_rational(cfg.algebra.get("momentum", 0), "algebra.momentum")
    W = FockModule(alg, momentum)
    return alg, W


def _run_propagate(cfg: RunConfig):
    alg, W = _algebra_and_module(cfg)
    Wd = dual_of(W)
    vs = [
        _vector_from_json(alg, vj, f"params.insertions[{i}]")
        for i, vj in enumerate(_json_list(cfg.params.get("insertions", []), "params.insertions"))
    ]
    zs = [_parse_rational(p, f"points[{i}]") for i, p in enumerate(cfg.points)]
    if len(vs) != len(zs):
        raise ConfigError("points", "insertions and points must match up")
    w = _vector_from_json(W, cfg.params.get("w", [{"monomial": []}]), "params.w")
    wp = _vector_from_json(Wd, cfg.params.get("wp", [{"monomial": []}]), "params.wp")
    res = propagate_eval(vs, zs, w, wp, cfg.cutoffs["L"])
    lines = ["grade_cutoff\tpartial_sum_re\tpartial_sum_im\ttail_estimate"]
    acc = 0
    for g, s in res.shells:
        acc = acc + s
        z = complex(acc)
        lines.append(f"{g}\t{z.real!r}\t{z.imag!r}\t{res.tail_estimate!r}")
    if cfg.mode == "exact":
        lines.append(f"# exact partial sum\t{res.value}")
    oracle = heisenberg_correlator(vs, w, wp).evaluate(dict(enumerate(zs)))
    lines.append(f"# oracle value\t{_fmt(oracle, cfg.mode)}")
    status = 0
    if res.exact and res.value != oracle:
        status = 1
    return status, lines


def _series_from_json(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be a JSON object")
    k = obj.get("k", 1)
    if type(k) is not int or k < 1:
        raise ConfigError(f"{path}.k", "must be a positive integer")
    terms = {}
    for i, item in enumerate(_json_list(obj.get("terms", []), f"{path}.terms")):
        if not isinstance(item, list) or len(item) != 3:
            raise ConfigError(f"{path}.terms[{i}]", "must be [num, den, coeff]")
        e = _parse_rational(item[:2], f"{path}.terms[{i}]")
        terms[e] = _parse_rational(item[2], f"{path}.terms[{i}]")
    trunc = obj.get("trunc")
    return FracLaurent("z", k, terms, None if trunc is None else _parse_rational(trunc, f"{path}.trunc"))


def _residue_fixtures():
    one = FracLaurent("z", 1, {0: 1}, trunc=8)
    onez = FracLaurent("z", 1, {0: 1, 1: 1}, trunc=8)
    s0 = FracLaurent("z", 1, {-1: 1}, trunc=8)
    sinf = FracLaurent("z", 1, {1: 1}, trunc=8)
    return [
        ("constant", [0, INF], [[one], [one]], True),
        ("perturbed-fail", [0, INF], [[one], [onez]], False),
        ("simple-pole", [0, INF], [[s0], [sinf]], True),
    ]


def _run_residue_check(cfg: RunConfig):
    p = cfg.params.get("pole_bound", 2)
    K = cfg.params.get("dual_pole_bound", 4)
    if "marked" in cfg.params:
        marked = [
            INF if x == "inf" else _parse_rational(x, "params.marked")
            for x in _json_list(cfg.params["marked"], "params.marked")
        ]
        if not marked:
            raise ConfigError("params.marked", "needs at least one marked point")
        series = _json_list(cfg.params.get("series"), "params.series")
        if len(series) != len(marked):
            raise ConfigError("params.series", "needs one list of components per marked point")
        data = [
            [_series_from_json(comp, f"params.series[{j}]") for comp in _json_list(comps, f"params.series[{j}]")]
            for j, comps in enumerate(series)
        ]
        if len({len(comps) for comps in data}) != 1:
            raise ConfigError("params.series", "every marked point needs the same number of components")
        cases = [("input", marked, data, cfg.params.get("expect", True))]
    else:
        cases = _residue_fixtures()

    def run_case(case):
        name, marked, data, expect = case
        got = residue_criterion(marked, data, p, K)
        verdict = "pass" if got == expect else "FAIL"
        extra = ""
        if got:
            sec = reconstruct_global(marked, data, p)
            if sec is None:
                verdict = "FAIL"
                extra = "\tcriterion passed but reconstruction failed"
            else:
                round_trip = all(
                    sec.expand_at(j, order)[u] == s.truncate(order)
                    for j, comps in enumerate(data)
                    for u, s in enumerate(comps)
                    for order in [6 if s.trunc is None else int(s.trunc)]
                )
                if not round_trip:
                    verdict = "FAIL"
                    extra = "\tre-expansion mismatch"
        return f"{name}\t{'true' if got else 'false'}\t{verdict}{extra}", verdict

    rows = [run_case(case) for case in cases]
    lines = ["case\tcriterion\tverdict"] + [r[0] for r in rows]
    status = 0 if all(r[1] == "pass" for r in rows) else 1
    return status, lines


def _run_sew(cfg: RunConfig):
    alg, W = _algebra_and_module(cfg)
    Wd = dual_of(W)
    N = cfg.cutoffs["N"]
    u = _vector_from_json(alg, cfg.params.get("u", [{"monomial": [2]}]), "params.u")
    w = _vector_from_json(W, cfg.params.get("w", [{"monomial": [1]}]), "params.w")
    if "wp" in cfg.params:
        wp = _vector_from_json(Wd, cfg.params["wp"], "params.wp")
    else:
        wp = GradedVector(Wd, {m: 1 for g in range(N + 1) for m in Wd.basis(g)})
    L = cfg.cutoffs["L"]
    # the Casimir shells pair the field with dual states of grade <= N only
    field_at_1 = _apply_field(u, 1, w, range(min(N, L) + 1))

    def block(m, md):
        # pairing block times the one-point sphere block at 1 (Example-lb9 shape)
        total = dual_pairing(m, wp)
        if total.is_zero():
            return 0
        if md.max_weight() > L:  # the field was kept only up to grade L
            raise CutoffOverflow(md.max_weight(), L)
        return total * dual_pairing(field_at_1, md)

    series = sew(block, W, N)
    lines = ["q_exponent\tcoefficient"]
    for e, c in series.sorted_terms():
        lines.append(f"{e}\t{_fmt(c, cfg.mode)}")
    return 0, lines


def _run_commute_check(cfg: RunConfig):
    alg, W = _algebra_and_module(cfg)
    Wd = dual_of(W)
    p = cfg.params

    def listed(name):
        return _json_list(p.get(name, []), f"params.{name}")

    vs_a = [_vector_from_json(alg, v, "params.insertions_a") for v in listed("insertions_a")]
    vs_b = [_vector_from_json(alg, v, "params.insertions_b") for v in listed("insertions_b")]
    za = [_parse_rational(x, "params.points_a") for x in listed("points_a")]
    zb = [_parse_rational(x, "params.points_b") for x in listed("points_b")]
    w = _vector_from_json(W, p.get("w", [{"monomial": []}]), "params.w")
    wp = _vector_from_json(Wd, p.get("wp", [{"monomial": []}]), "params.wp")
    ok, disc, lhs, rhs = sew_propagate_commute_check(
        vs_a, za, vs_b, zb, w, wp, cfg.cutoffs["N"], cfg.cutoffs["L"]
    )
    lines = ["q_exponent\tsewn_propagation\tpropagated_sewing\tdifference"]
    for g in range(cfg.cutoffs["N"] + 1):
        l, r = lhs.coeff(g), rhs.coeff(g)
        lines.append(f"{g}\t{_fmt(l, cfg.mode)}\t{_fmt(r, cfg.mode)}\t{_fmt(l - r, cfg.mode)}")
    lines.append(f"# max discrepancy\t{disc!r}")
    return (0 if ok else 1), lines


def _run_twist_check(cfg: RunConfig):
    alg, W = _algebra_and_module(cfg)
    Wd = dual_of(W)
    ks = cfg.params.get("k", [2, 3])
    if isinstance(ks, int):
        ks = [ks]
    grade = cfg.params.get("grade", 4)
    vac = GradedVector.vacuum(alg)

    def run_k(k):
        tw = TwistedModule(W, k)
        T = tw.tensor
        gen_vecs = [
            tensor_vector(T, [GradedVector.state(alg, m)] + [vac] * (k - 1))
            for g in range(1, grade + 1)
            for m in alg.basis(g)
        ]
        states = [GradedVector.state(W, m) for g in range(0, 3) for m in W.basis(g)]
        ns = [Fraction(m, k) for m in range(-2 * k, 2 * k + 1)]
        rows = []
        ok_g = check_grading(tw, gen_vecs, states, ns)
        rows.append(("grading", k, ok_g))
        w_monos = [m for g in range(0, 3) for m in W.basis(g)]
        ok_e = check_equivariance(tw, gen_vecs, w_monos, w_monos)
        rows.append(("equivariance", k, ok_e))
        a = GradedVector.state(alg, (1,))
        u = tensor_vector(T, [a] + [vac] * (k - 1))
        hs = [Fraction(x, k) for x in range(-2 * k, 2 * k + 1)]
        ok_j = True
        for pg in range(0, 4):
            for pm in W.basis(pg):
                okx, _ = check_jacobi(
                    tw, u, u, GradedVector.vacuum(W), GradedVector.state(Wd, pm),
                    range(-2, 3), range(-2, 3), hs,
                )
                ok_j = ok_j and okx
        rows.append(("jacobi", k, ok_j))
        # construction-path agreement on the common domain
        ok_p = True
        for g in range(0, grade + 1):
            for vm in alg.basis(g):
                v = GradedVector.state(alg, vm)
                vt = tensor_vector(T, [v] + [vac] * (k - 1))
                for wg in range(0, 3):
                    for wm in W.basis(wg):
                        for pg in range(0, 3):
                            for pm in W.basis(pg):
                                s1 = tw.generator_series(v, wm, pm).drop_truncation()
                                s2 = tw.pairing_series(vt, wm, pm).drop_truncation()
                                ok_p = ok_p and (s1 == s2)
        rows.append(("path-agreement", k, ok_p))
        return rows

    all_rows = [row for k in ks for row in run_k(k)]
    lines = ["check\tk\tstatus"] + [f"{name}\t{k}\t{'pass' if ok else 'FAIL'}" for name, k, ok in all_rows]
    status = 0 if all(ok for _, _, ok in all_rows) else 1
    return status, lines


def _run_twist_modes(cfg: RunConfig):
    alg, W = _algebra_and_module(cfg)
    k = cfg.params.get("k", 2)
    if not isinstance(k, int):
        raise ConfigError("params.k", "must be one positive integer")
    tw = TwistedModule(W, k)
    vac = GradedVector.vacuum(alg)
    u_json = cfg.params.get("u", [{"monomial": [1]}])
    v = _vector_from_json(alg, u_json, "params.u")
    u = tensor_vector(tw.tensor, [v] + [vac] * (k - 1))
    grade = cfg.params.get("grade", 3)
    table = []
    for wg in range(0, grade + 1):
        for wm in W.basis(wg):
            for pg in range(0, grade + 1):
                for pm in W.basis(pg):
                    series = tw.pairing_series(u, wm, pm)
                    for e, c in series.sorted_terms():
                        n = Fraction(-(e + k), k)
                        table.append(
                            {
                                "n": [n.numerator, n.denominator],
                                "in": list(wm),
                                "out": list(pm),
                                "value": _scalar_json(c, cfg.mode),
                            }
                        )
    u_terms = [{"monomial": list(m), "coeff": _scalar_json(c, cfg.mode)} for m, c in sorted(v.terms.items())]
    payload = {"k": k, "u": u_terms, "modes": table}
    return 0, [json.dumps(payload, sort_keys=True)]


def _run_jacobi_check(cfg: RunConfig):
    alg, W = _algebra_and_module(cfg)
    grade = cfg.params.get("grade", 3)
    bound = cfg.params.get("index_bound", 3)
    triples = [
        (um, vm, wm)
        for gu in range(grade + 1)
        for gv in range(grade + 1)
        for gw in range(grade + 1)
        for um in alg.basis(gu)
        for vm in alg.basis(gv)
        for wm in W.basis(gw)
    ]

    idx = range(-bound, bound + 1)

    def check(triple):
        um, vm, wm = triple
        u = GradedVector.state(alg, um)
        v = GradedVector.state(alg, vm)
        w = GradedVector.state(W, wm)
        sweep = jacobi_sweep(mode_action, u, v, w, itertools.product(idx, idx, idx))
        return all(diff.is_zero() for diff in sweep)

    failed = [t for t in triples if not check(t)]
    lines = [
        "triples\tindex_bound\tfailures",
        f"{len(triples)}\t{bound}\t{len(failed)}",
    ]
    for t in failed:
        lines.append(f"# FAIL\t{t}")
    return (0 if not failed else 1), lines


_SUBCOMMANDS = {
    "uc-solve": _run_uc_solve,
    "propagate": _run_propagate,
    "residue-check": _run_residue_check,
    "sew": _run_sew,
    "commute-check": _run_commute_check,
    "twist-check": _run_twist_check,
    "twist-modes": _run_twist_modes,
    "jacobi-check": _run_jacobi_check,
}


def run(cfg: RunConfig):
    """Execute a configured experiment; returns the process exit status."""
    if cfg.subcommand not in _SUBCOMMANDS:
        raise ConfigError("subcommand", f"unknown subcommand {cfg.subcommand!r}")
    status, lines = _SUBCOMMANDS[cfg.subcommand](cfg)
    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


def build_parser():
    parser = argparse.ArgumentParser(
        prog="voablocks",
        description="exact genus-0 conformal-block experiments",
    )
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--config", help="path to a RunConfig JSON file")
    parser.add_argument("--cutoff-grade", type=int, help="weight cutoff L")
    parser.add_argument("--cutoff-q", type=int, help="sewing order N")
    parser.add_argument("--mode", choices=["exact", "float"])
    parser.add_argument("--threads", type=int)
    parser.add_argument("--out", help="output path (defaults to stdout)")
    parser.add_argument("--taylor", help="comma-separated Taylor data for uc-solve")
    parser.add_argument("--k", type=int, help="twist order for twist subcommands")
    parser.add_argument("--grade", type=int, help="grade bound for twist/jacobi checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            with open(args.config) as fh:
                cfg = RunConfig.from_json(json.load(fh))
            if cfg.subcommand != args.subcommand:
                raise ConfigError("subcommand", "config disagrees with the command line")
        else:
            cfg = RunConfig(subcommand=args.subcommand)
        if args.cutoff_grade is not None:
            cfg.cutoffs["L"] = args.cutoff_grade
        if args.cutoff_q is not None:
            cfg.cutoffs["N"] = args.cutoff_q
        if args.mode:
            cfg.mode = args.mode
        if args.threads is not None:
            cfg.threads = args.threads
        if args.out:
            cfg.out = args.out
        if args.taylor:
            cfg.params["taylor"] = args.taylor.split(",")
        if args.k is not None:
            cfg.params["k"] = args.k
        if args.grade is not None:
            cfg.params["grade"] = args.grade
        RunConfig.from_json(cfg.to_json())  # validate the effective config
        return run(cfg)
    except (ValueError, OSError, ScalarError) as exc:  # bad input: config, JSON, values, files, mixed fields
        sys.stderr.write(str(exc) + "\n")
        return 2
    except CutoffOverflow as exc:
        sys.stderr.write(
            f"weight overflow: a result of weight {exc.weight} exceeded the "
            f"cutoff {exc.cutoff}; raise --cutoff-grade and retry\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())

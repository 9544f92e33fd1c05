import json
from pathlib import Path

import pytest

from voablocks.cli import RunConfig, main
from voablocks.scalars import Scalar


def _read(path):
    with open(path) as fh:
        return fh.read()


def test_uc_solve_example(tmp_path):
    out = tmp_path / "uc.tsv"
    status = main(["uc-solve", "--taylor", "1,1,1,1", "--out", str(out)])
    assert status == 0
    assert _read(out) == "c0\t1\nc1\t1\nc2\t0\nc3\t0\n"


def test_uc_solve_rational_input(tmp_path):
    out = tmp_path / "uc.tsv"
    status = main(["uc-solve", "--taylor", "3/2,0,0", "--out", str(out)])
    assert status == 0
    assert _read(out).splitlines()[0] == "c0\t3/2"


def test_config_round_trip():
    cfg = RunConfig(
        subcommand="sew",
        cutoffs={"L": 20, "N": 6, "M": 10},
        points=["1/2", "3/4"],
        mode="float",
        threads=4,
        params={"u": [{"monomial": [2]}]},
    )
    again = RunConfig.from_json(cfg.to_json())
    assert again.to_json() == cfg.to_json()


def test_schema_violation_reports_field_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"subcommand": "sew", "cutoffs": {"L": -3}}))
    status = main(["sew", "--config", str(bad)])
    assert status == 2
    assert "cutoffs.L" in capsys.readouterr().err


def test_unknown_field_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"subcommand": "sew", "bogus": 1}))
    assert main(["sew", "--config", str(bad)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_residue_check_fixtures(tmp_path):
    out = tmp_path / "r.tsv"
    assert main(["residue-check", "--out", str(out)]) == 0
    body = _read(out)
    assert "constant\ttrue\tpass" in body
    assert "perturbed-fail\tfalse\tpass" in body
    assert "simple-pole\ttrue\tpass" in body


def test_residue_check_detects_violation(tmp_path):
    cfg = {
        "subcommand": "residue-check",
        "params": {
            "marked": ["0", "inf"],
            "series": [
                [{"terms": [[0, 1, "1"]], "trunc": 8}],
                [{"terms": [[0, 1, "1"], [1, 1, "1"]], "trunc": 8}],
            ],
            "expect": True,
            "pole_bound": 2,
            "dual_pole_bound": 4,
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "r.tsv"
    status = main(["residue-check", "--config", str(path), "--out", str(out)])
    assert status == 1
    assert "FAIL" in _read(out)


def test_sew_output(tmp_path):
    out = tmp_path / "s.tsv"
    assert main(["sew", "--cutoff-q", "5", "--out", str(out)]) == 0
    lines = _read(out).splitlines()
    assert lines[0] == "q_exponent\tcoefficient"
    assert len(lines) > 2


def test_commute_check_cli(tmp_path):
    cfg = {
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
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "c.tsv"
    assert main(["commute-check", "--config", str(path), "--out", str(out)]) == 0
    for line in _read(out).splitlines()[1:-1]:
        assert line.split("\t")[3] == "0"


def test_twist_modes_json(tmp_path):
    out = tmp_path / "m.json"
    assert main(["twist-modes", "--k", "2", "--grade", "1", "--out", str(out)]) == 0
    payload = json.loads(_read(out))
    assert payload["k"] == 2
    assert payload["modes"]
    for entry in payload["modes"]:
        num, den = entry["n"]
        assert den in (1, 2)


def test_twist_check_small(tmp_path):
    out = tmp_path / "t.tsv"
    assert main(["twist-check", "--k", "2", "--grade", "2", "--out", str(out)]) == 0
    body = _read(out)
    assert "grading\t2\tpass" in body
    assert "equivariance\t2\tpass" in body
    assert "jacobi\t2\tpass" in body
    assert "path-agreement\t2\tpass" in body


def test_twist_check_k1_passes(tmp_path):
    out = tmp_path / "t.tsv"
    assert main(["twist-check", "--k", "1", "--grade", "2", "--out", str(out)]) == 0
    assert "path-agreement\t1\tpass" in _read(out)


@pytest.mark.parametrize("subcommand", ["twist-check", "twist-modes"])
def test_twist_order_above_the_cyclotomic_limit_is_refused(subcommand, capsys):
    # k = 1001 used to run for minutes building the root points
    assert main([subcommand, "--k", "1001", "--grade", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error at params.k: must be an integer from 1 to 1000\n"


def test_jacobi_check_small(tmp_path):
    out = tmp_path / "j.tsv"
    assert main(["jacobi-check", "--grade", "1", "--cutoff-grade", "12", "--out", str(out)]) == 0
    assert _read(out).splitlines()[1].endswith("\t0")


def test_float_mode(tmp_path):
    out = tmp_path / "uc.tsv"
    assert main(["uc-solve", "--taylor", "1/2,0", "--mode", "float", "--out", str(out)]) == 0
    assert _read(out).splitlines()[0].startswith("c0\t0.5")


def test_thread_count_does_not_change_output(tmp_path):
    baseline = None
    for threads in (1, 4):
        out = tmp_path / f"r{threads}.tsv"
        assert main(["residue-check", "--threads", str(threads), "--out", str(out)]) == 0
        body = _read(out)
        if baseline is None:
            baseline = body
        assert body == baseline


def test_propagate_cli(tmp_path):
    import json

    cfg = {
        "subcommand": "propagate",
        "cutoffs": {"L": 30},
        "points": ["1/2", "2"],
        "params": {
            "insertions": [[{"monomial": [1]}], [{"monomial": [1]}]],
            "w": [{"monomial": []}],
            "wp": [{"monomial": []}],
        },
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "p.tsv"
    assert main(["propagate", "--config", str(path), "--out", str(out)]) == 0
    lines = _read(out).splitlines()
    assert lines[0] == "grade_cutoff\tpartial_sum_re\tpartial_sum_im\ttail_estimate"
    assert any(line.startswith("# oracle value") for line in lines)
    # last partial sum is near the oracle 1/(1/2 - 2)^2 = 4/9
    final = float(lines[-3].split("\t")[1])
    assert abs(final - 4 / 9) < 1e-6


def test_overflow_surfaced_with_cutoff(tmp_path, capsys):
    import json

    cfg = {
        "subcommand": "propagate",
        "cutoffs": {"L": 2},
        "points": ["1/2"],
        "params": {
            "insertions": [[{"monomial": [1]}]],
            "w": [{"monomial": [2, 1]}],
            "wp": [{"monomial": [2, 1, 1]}],
        },
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    status = main(["propagate", "--config", str(path)])
    assert status == 1
    err = capsys.readouterr().err
    assert "cutoff 2" in err


@pytest.mark.parametrize(
    "argv_for",
    [
        lambda tmp_path: ["sew", "--cutoff-q", "27"],
        lambda tmp_path: _config_file(tmp_path, {"subcommand": "sew", "cutoffs": {"N": 3, "L": 2}}, "sew"),
    ],
    ids=["q27-default-L", "N3-L2"],
)
def test_sew_beyond_the_grade_cutoff_overflows(argv_for, tmp_path, capsys):
    # the field at 1 is kept only up to grade L, so q^n with n > L would be
    # printed from a truncated field as if it were complete
    assert main(argv_for(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert "raise --cutoff-grade" in line


def test_sew_up_to_the_grade_cutoff_is_complete(capsys):
    # closed form -2 + sum_{g=3..N} (g - 2) q^g, here at N = L = 24
    assert main(["sew", "--cutoff-q", "24"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["0", "-2"]] + [[str(g), str(g - 2)] for g in range(3, 25)]


GOLDEN = Path(__file__).parent / "golden"

GOLDEN_RUNS = {
    "uc_solve": ["uc-solve", "--taylor", "3/2,-1/3,2,5"],
    "commute_check": ["commute-check", "--config", str(GOLDEN / "commute_check.json")],
    "propagate": ["propagate", "--config", str(GOLDEN / "propagate.json")],
    "residue_check": ["residue-check"],
    "sew": ["sew", "--cutoff-q", "8"],
    "twist_check": ["twist-check", "--k", "2", "--grade", "2"],
    "twist_check_k3": ["twist-check", "--k", "3", "--grade", "1"],
    "twist_modes": ["twist-modes", "--k", "3", "--grade", "1"],
    "jacobi_check": ["jacobi-check", "--grade", "1", "--cutoff-grade", "12"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_matches_golden(name, capsys):
    # stdout must stay byte-identical to the recorded reference output
    assert main(GOLDEN_RUNS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def _bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"subcommand": "sew",')
    return ["sew", "--config", str(path)]


def _unordered_points(tmp_path):
    cfg = {
        "subcommand": "propagate",
        "points": ["2", "1"],
        "params": {"insertions": [[{"monomial": [1]}], [{"monomial": [1]}]]},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    return ["propagate", "--config", str(path)]


def _missing_config(tmp_path):
    return ["sew", "--config", str(tmp_path / "missing.json")]


def _config_file(tmp_path, cfg, subcommand="jacobi-check"):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return [subcommand, "--config", str(path)]


def _params_config(subcommand, **fields):
    return lambda tmp_path: _config_file(tmp_path, {"subcommand": subcommand, **fields}, subcommand)


def _list_params(tmp_path):
    return _config_file(tmp_path, {"subcommand": "jacobi-check", "params": [1]})


def _list_cutoffs(tmp_path):
    return _config_file(tmp_path, {"subcommand": "jacobi-check", "cutoffs": [1]})


def _string_cutoff(tmp_path):
    return _config_file(tmp_path, {"subcommand": "jacobi-check", "cutoffs": {"L": "12"}})


def _propagate_with_w(w):
    def argv_for(tmp_path):
        cfg = {
            "subcommand": "propagate",
            "points": ["1/2"],
            "params": {"insertions": [[{"monomial": [1]}]], "w": w},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        return ["propagate", "--config", str(path)]

    return argv_for


_ONE = {"terms": [[0, 1, 1]], "trunc": 8}

# the primitive 4th and 3rd roots of unity: scalars of two cyclotomic fields
# that no computation may mix
_ZETA4 = {"cyc": {"k": 4, "vec": [[0, 1], [1, 1]]}}
_ZETA3 = {"cyc": {"k": 3, "vec": [[0, 1], [1, 1]]}}


def _negative_index_bound(tmp_path):
    path = tmp_path / "j.json"
    path.write_text(json.dumps({"subcommand": "jacobi-check", "params": {"index_bound": -1}}))
    return ["jacobi-check", "--config", str(path)]


@pytest.mark.parametrize(
    "argv_for",
    [
        _bad_json,
        lambda tmp_path: ["uc-solve", "--taylor", "0,1"],
        _unordered_points,
        _missing_config,
        lambda tmp_path: ["jacobi-check", "--grade", "-1"],
        lambda tmp_path: ["twist-check", "--k", "0"],
        _list_params,
        _list_cutoffs,
        _string_cutoff,
        _propagate_with_w([{"monomial": [], "coeff": {"float": [1.0, 0.0]}}]),
        _propagate_with_w([{"monomial": [], "coeff": {"x": 1}}]),
        _propagate_with_w([{"monomial": [], "coeff": {"rat": [1, 0]}}]),
        _propagate_with_w({"monomial": []}),
        _propagate_with_w([{"monomial": 2}]),
        _propagate_with_w([{"monomial": [2, 1]}, {"monomial": [1, 2]}]),
        _propagate_with_w([{"monomial": [1, 0]}]),
        _propagate_with_w([{"monomial": [1.0]}]),
        _propagate_with_w([{"monomial": [], "coeff": {"cyc": {"k": 10**9, "vec": [[1, 1]]}}}]),
        lambda tmp_path: _config_file(tmp_path, {"subcommand": "jacobi-check", "threads": "2"}),
        lambda tmp_path: ["residue-check", "--threads", "0"],
        lambda tmp_path: ["residue-check", "--threads", "-3"],
        _params_config("residue-check", params={"marked": 5}),
        _params_config("residue-check", params={"marked": [0, "inf"], "series": 5}),
        _params_config("residue-check", params={"pole_bound": "x"}),
        _params_config("residue-check", params={"marked": [0, "inf"], "series": [[{"terms": [[0, 1, 1]]}]]}),
        _params_config("residue-check", params={"marked": [0], "series": [[{"terms": [[0, 0, 1]]}]]}),
        _params_config("residue-check", params={
            "marked": ["0", "inf"], "series": [[{"terms": [[0, 1, 1]], "trunc": 8}]] * 2,
            "pole_bound": 2, "dual_pole_bound": 2, "expect": "yes",
        }),
        _params_config("propagate", points=5),
        _params_config("propagate", params={"insertions": 5}),
        _params_config("commute-check", params={"points_a": 5}),
        _params_config("twist-modes", params={"k": [2, 3]}),
        _params_config("residue-check", params={"marked": [], "series": []}),
        _params_config("residue-check", params={"marked": ["0", "inf"], "series": [[_ONE], [_ONE, _ONE]]}),
        _params_config("residue-check", params={"marked": ["0", "inf"], "series": [[_ONE, _ONE], [_ONE]]}),
        _params_config("uc-solve", params={"taylor": 5}),
        _params_config("uc-solve", params={"taylor": "12"}),
        _params_config(
            "propagate",
            points=["1/2"],
            params={"insertions": [[{"monomial": [1], "coeff": _ZETA4}]], "wp": [{"monomial": [1], "coeff": _ZETA3}]},
        ),
        _params_config("sew", params={"u": [{"monomial": [2], "coeff": _ZETA4}], "w": [{"monomial": [1], "coeff": _ZETA3}]}),
        _propagate_with_w([{"monomial": [1], "coeff": _ZETA4}, {"monomial": [1], "coeff": _ZETA3}]),
        _params_config("twist-check", params={"k": True}),
        _params_config("jacobi-check", cutoffs={"L": True}),
        _params_config("propagate", points=[True], params={"insertions": [[{"monomial": [1]}]]}),
        _propagate_with_w([{"monomial": [], "coeff": {"rat": [True, 2]}}]),
        _params_config("jacobi-check", threads=True),
        _propagate_with_w([{"monomial": [], "coeff": {"cyc": {"k": True, "vec": [[1, 1]]}}}]),
    ],
    ids=[
        "malformed-json", "degenerate-taylor", "unordered-points", "missing-config", "negative-grade", "zero-k",
        "params-not-object", "cutoffs-not-object", "string-cutoff", "float-coeff", "unknown-coeff",
        "zero-denominator-coeff", "vector-not-list", "monomial-not-list", "non-canonical-monomial",
        "zero-part-monomial", "float-part-monomial", "huge-cyclotomic-order", "string-threads", "zero-threads",
        "negative-threads", "marked-not-list", "series-not-list", "string-pole-bound", "series-per-point",
        "zero-denominator-exponent", "string-expect", "points-not-list", "insertions-not-list", "commute-points-not-list",
        "twist-modes-k-list", "no-marked-points", "ragged-series-at-infinity", "ragged-series-at-zero",
        "taylor-not-list", "taylor-string", "mixed-fields-insertion-and-wp", "mixed-fields-u-and-w",
        "mixed-fields-in-one-vector", "boolean-k", "boolean-cutoff", "boolean-point", "boolean-rat-coeff",
        "boolean-threads", "boolean-cyc-order",
    ],
)
def test_bad_input_gives_one_line_and_exit_2(argv_for, tmp_path, capsys):
    assert main(argv_for(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_residue_check_names_mismatched_data(tmp_path, capsys):
    for params, path in (
        ({"marked": [], "series": []}, "params.marked"),
        ({"marked": ["0", "inf"], "series": [[_ONE], [_ONE, _ONE]]}, "params.series"),
    ):
        assert main(_params_config("residue-check", params=params)(tmp_path)) == 2
        assert capsys.readouterr().err.startswith(f"config error at {path}:")


def test_residue_check_reads_a_zero_truncation_order(tmp_path, capsys):
    # the expansion at infinity is known to order 0, i.e. not at all; it was
    # read as order 6 and reported as a re-expansion mismatch
    params = {
        "marked": ["0", "inf"],
        "pole_bound": 0,
        "dual_pole_bound": 0,
        "series": [[_ONE], [{"terms": [], "trunc": "0"}]],
    }
    assert main(_params_config("residue-check", params=params)(tmp_path)) == 0
    assert capsys.readouterr().out == "case\tcriterion\tverdict\ninput\ttrue\tpass\n"


def test_non_canonical_monomial_names_the_term(tmp_path, capsys):
    # a_{-1} a_{-2} |0> is the basis state (2, 1); read as a distinct key it
    # used to pair to 0 against (2, 1) and report a false identity failure
    cfg = {
        "subcommand": "propagate",
        "params": {"w": [{"monomial": [2, 1]}], "wp": [{"monomial": [1, 2]}]},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    assert main(["propagate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error at params.wp[0].monomial:")


def test_repeated_monomials_add_up(tmp_path, capsys):
    cfg = {
        "subcommand": "propagate",
        "params": {
            "w": [{"monomial": [1], "coeff": 1}, {"monomial": [1], "coeff": 2}],
            "wp": [{"monomial": [1]}],
        },
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    assert main(["propagate", "--config", str(path)]) == 0
    assert "# exact partial sum\t3\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv_for, path",
    [
        (lambda tmp_path: ["jacobi-check", "--grade", "-1"], "params.grade"),
        (lambda tmp_path: ["twist-modes", "--grade", "-1"], "params.grade"),
        (_negative_index_bound, "params.index_bound"),
        (lambda tmp_path: ["twist-check", "--k", "0"], "params.k"),
        (lambda tmp_path: ["twist-modes", "--k", "-2"], "params.k"),
    ],
)
def test_bad_sweep_bound_names_the_field(argv_for, path, tmp_path, capsys):
    # an empty sweep would report a held identity; a bad k used to fail deep
    # inside the tensor algebra without naming the flag
    assert main(argv_for(tmp_path)) == 2
    assert path in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv_for, field",
    [
        (_list_params, "params"),
        (_list_cutoffs, "cutoffs"),
        (lambda tmp_path: _config_file(tmp_path, {"subcommand": "jacobi-check", "algebra": "heisenberg"}), "algebra"),
        (lambda tmp_path: _config_file(tmp_path, 7), "config"),
    ],
)
def test_non_object_config_field_is_named(argv_for, field, tmp_path, capsys):
    assert main(argv_for(tmp_path)) == 2
    assert capsys.readouterr().err == f"config error at {field}: must be a JSON object\n"


def test_twist_modes_float_mode_converts_values(capsys):
    argv = ["twist-modes", "--k", "3", "--grade", "1"]
    assert main(argv) == 0
    exact = json.loads(capsys.readouterr().out)
    assert main(argv + ["--mode", "float"]) == 0
    approx = json.loads(capsys.readouterr().out)
    def keys(payload):
        return [(e["n"], e["in"], e["out"]) for e in payload["modes"]]

    assert keys(approx) == keys(exact)
    pairs = [(e["value"], a["value"]) for e, a in zip(exact["modes"], approx["modes"])]
    pairs += [(e["coeff"], a["coeff"]) for e, a in zip(exact["u"], approx["u"])]
    assert len(pairs) == 3
    for ex, fl in pairs:
        assert list(fl) == ["float"]
        assert abs(complex(*fl["float"]) - Scalar.from_json(ex).to_complex()) <= 1e-12

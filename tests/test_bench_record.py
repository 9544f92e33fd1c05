"""The benchmark recorder's summary of perfbench results, on canned runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _result(cold_s, rss, correct=True, failed=0):
    # one JSON line of perfbench/run.py --trace 0
    return {
        "correct": correct,
        "attempted": 98,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": 0.06, "unit": "s"},
            "cold_s": {"value": cold_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }


def test_summary_gives_median_and_quartiles_per_workload_and_metric():
    runs = [
        ("jacobi-sweep", 1, _result(0.10, 18.5)),
        ("twisted-modules", 1, _result(0.30, 19.0, failed=2)),
        ("jacobi-sweep", 2, _result(0.14, 18.6)),
        ("jacobi-sweep", 3, _result(0.11, 18.5)),
        ("jacobi-sweep", 4, _result(0.20, 18.7)),
        ("jacobi-sweep", 5, _result(0.12, 18.5)),
        ("twisted-modules", 2, _result(0.50, 19.2, correct=False)),
    ]
    summary = bench_record.summarise(runs)
    assert sorted(summary) == ["jacobi-sweep", "twisted-modules"]
    jacobi = summary["jacobi-sweep"]
    assert jacobi["seeds"] == [1, 2, 3, 4, 5]
    assert (jacobi["correct"], jacobi["failed"]) == (True, 0)
    cold = jacobi["metrics"]["cold_s"]
    assert cold["values"] == [0.10, 0.14, 0.11, 0.20, 0.12]
    assert (cold["q1"], cold["median"], cold["q3"], cold["unit"]) == (0.11, 0.12, 0.14, "s")
    assert jacobi["metrics"]["peak_rss_mb"]["median"] == 18.5
    assert jacobi["metrics"]["peak_rss_mb"]["unit"] == "MB"
    twisted = summary["twisted-modules"]
    assert (twisted["correct"], twisted["failed"]) == (False, 2)
    assert twisted["metrics"]["cold_s"]["median"] == pytest.approx(0.40)
    assert twisted["metrics"]["cold_s"]["q1"] == pytest.approx(0.35)
    assert twisted["metrics"]["cold_s"]["q3"] == pytest.approx(0.45)


def test_one_run_is_its_own_median_and_quartiles():
    summary = bench_record.summarise([("propagate-sew", 7, _result(0.2, 22.9))])
    assert bench_record.quartiles([0.2]) == (0.2, 0.2, 0.2)
    metric = summary["propagate-sew"]["metrics"]["cold_s"]
    assert (metric["q1"], metric["median"], metric["q3"]) == (0.2, 0.2, 0.2)

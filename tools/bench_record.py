"""Record one point of the benchmark trajectory as a BENCH_<n>.json file.

    python3 tools/bench_record.py --out BENCH_23.json --seeds 7001,7002,7003

Run from the root of a source checkout.  For each workload named in
``BENCHMARK.json`` and each seed it runs the unchanged
``perfbench/run.py --trace 0`` in a subprocess, for the ``run_seconds``
that ``BENCHMARK.json`` fixes, and keeps the JSON line it
prints; the file gets the median and quartiles of every end-to-end metric
per workload.  It then times whole-process CLI runs at pinned configs
(``jacobi-check --grade 4`` at one and at two threads), wall-clock and the
CPU time of the process and its children, and records the host: usable
CPUs and the Python version.  Runs go one at a time, so they do not compete
for cores.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, arguments of the voablocks CLI) of the whole-process runs
CLI_RUNS = (
    ("jacobi-check --grade 4 --threads 1", ["jacobi-check", "--grade", "4", "--threads", "1"]),
    ("jacobi-check --grade 4 --threads 2", ["jacobi-check", "--grade", "4", "--threads", "2"]),
)


def quartiles(values):
    """(first quartile, median, third quartile) of a non-empty sample, by
    linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(runs):
    """Per workload, the median and quartiles of each end-to-end metric over
    its runs, with the seeds, the total of ``failed`` and whether every run
    was ``correct``.  ``runs`` holds (workload, seed, result) with result the
    JSON object ``perfbench/run.py`` prints."""
    by_workload = {}
    for workload, seed, result in runs:
        by_workload.setdefault(workload, []).append((seed, result))
    out = {}
    for workload, items in by_workload.items():
        metrics = {}
        for name in items[0][1]["metrics"]:
            values = [result["metrics"][name]["value"] for _, result in items]
            q1, median, q3 = quartiles(values)
            metrics[name] = {
                "unit": items[0][1]["metrics"][name]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "values": values,
            }
        out[workload] = {
            "seeds": [seed for seed, _ in items],
            "correct": all(result["correct"] for _, result in items),
            "failed": sum(result["failed"] for _, result in items),
            "metrics": metrics,
        }
    return out


def run_workload(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_record: {' '.join(cmd)} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def time_cli(args):
    """(wall seconds, CPU seconds of the run and its children, exit status)
    of one whole-process CLI run, its output discarded."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "voablocks.cli"] + args, cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, done.returncode


def host():
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {"nproc": usable, "python": platform.python_version()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the BENCH_<n>.json to write")
    parser.add_argument("--seeds", required=True, help="comma-separated benchmark seeds")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = []
    for seed in seeds:  # seeds outermost, so a slow spell of the host spreads over every workload
        for workload in workloads:
            runs.append((workload, seed, run_workload(workload, seed, seconds)))
            sys.stderr.write(f"bench_record: {workload} seed {seed} done\n")
    cli = {}
    for name, cli_args in CLI_RUNS:
        wall, cpu, status = time_cli(cli_args)
        cli[name] = {"wall_s": wall, "cpu_s": cpu, "exit": status}
        sys.stderr.write(f"bench_record: {name} done\n")
    record = {
        "host": host(),
        "perfbench": {"seconds": seconds, "workloads": summarise(runs)},
        "cli": cli,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

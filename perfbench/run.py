"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  An untraced run (``--trace 0``) times the set-up from
the start of this script, then runs as many rounds as fit in ``--seconds``
(at least two): each round runs one pass with cold caches and one warm
pass over the same set-up objects, and the next round builds the inputs
afresh.  It reports the medians of the cold and of the warm passes.  A traced run
(``--trace 1``) times one untraced cold pass, then builds the inputs again
under the tracer, runs one cold and one warm pass and reports the
per-layer metrics.  Every pass is checked; a failed check prints one line
on stderr and makes ``correct`` false.

Both kinds of run set the interpreter's switch interval to 100 s, so that
a thread pool's tasks run without preemption.  With the default 5 ms, each
forced handoff of the GIL between the pool's threads waits until the other
thread's core is scheduled; on a shared host whose cores are taken away now
and then, ``jacobi-sweep``, the one workload with a thread pool, spread
several times more than the others.  The same setting makes the traced
counts repeat exactly: two threads never both miss the same cache key and
compute it twice.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END_UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}
SWITCH_INTERVAL_S = 100.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import voablocks from this checkout's src and nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import voablocks
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import voablocks from {SRC}: {exc}")
    if not os.path.abspath(voablocks.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: voablocks was imported from {voablocks.__file__}, not {SRC}")


def run_pass(workload, canon):
    t0 = time.perf_counter()
    raw = [call() for _, _, call in workload.ops]
    elapsed = time.perf_counter() - t0
    return elapsed, [(name, inp, canon(r)) for (name, inp, _), r in zip(workload.ops, raw)]


def verify(workload, passes):
    """Check the first pass, and that every later pass repeats it exactly
    (a pass that does not is checked on its own as well)."""
    import checks

    problems, first_failed = workload.verify(passes[0])
    failed = first_failed
    for i, results in enumerate(passes[1:], start=1):
        message = checks.same_pass(passes[0], results)
        if message is None:
            failed += first_failed
            continue
        problems.append(("warm-equals-cold", f"pass {i}", message))
        p, f = workload.verify(results)
        problems += p
        failed += f
    return problems, failed


def untraced(args, workloads):
    make = workloads.WORKLOADS[args.workload]
    wl = make(args.seed, OUT)
    wl.setup()
    setup_s = time.perf_counter() - START
    passes, cold_s, warm_s = [], [], []
    begin = time.perf_counter()
    while True:
        round_begin = time.perf_counter()
        try:
            for times in (cold_s, warm_s):
                elapsed, results = run_pass(wl, workloads.canon)
                times.append(elapsed)
                passes.append(results)
        finally:
            wl.cleanup()
        if len(cold_s) == 1:
            # after one round, so that it does not depend on how many fit
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        now = time.perf_counter()
        if len(cold_s) >= 2 and now - begin + (now - round_begin) > args.seconds:
            break  # another round as long as this one would end too late
        del wl
        gc.collect()  # the previous round's caches, before the next round
        wl = make(args.seed, OUT)
        wl.setup()
    values = {
        "setup_s": setup_s,
        "cold_s": statistics.median(cold_s),
        "warm_s": statistics.median(warm_s),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    extra = {"cold_passes_s": cold_s, "warm_passes_s": warm_s}
    return wl, passes, metrics, extra


def traced(args, workloads):
    import tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    wl.setup()
    try:
        plain_cold_s, plain = run_pass(wl, workloads.canon)
    finally:
        wl.cleanup()
    del wl
    gc.collect()
    modules = [m for name, m in sys.modules.items() if name.startswith("voablocks")]
    tr = tracer.Tracer(modules + [workloads])
    tr.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    try:
        wl.setup()
        cold_s, cold = run_pass(wl, workloads.canon)
        warm_s, warm = run_pass(wl, workloads.canon)
    finally:
        tr.uninstall()
        wl.cleanup()
    values, table = tr.metrics(overhead_s=cold_s - plain_cold_s)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _) in tracer.PER_LAYER.items()
    }
    extra = {"untraced_cold_s": plain_cold_s, "traced_cold_s": cold_s,
             "traced_warm_s": warm_s, "spans": table}
    return wl, [plain, cold, warm], metrics, extra


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    wl, passes, metrics, extra = (traced if args.trace else untraced)(args, workloads)
    problems, failed = verify(wl, passes)
    for check, inp, message in problems:
        sys.stderr.write(f"perfbench: FAIL workload={args.workload} check={check} "
                         f"input={inp}: {message}\n")
    result = {
        "correct": not problems,
        "attempted": sum(len(p) for p in passes),
        "failed": failed,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w") as fh:
        json.dump({**result, "seed": args.seed, "seconds": args.seconds, **extra}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

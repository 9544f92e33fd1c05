"""Work split across forked processes, with no process pool.

``run_shards(run_shard, workers)`` returns ``[run_shard(s) for s in
range(workers)]``: the calling process runs shard 0 itself and every other
shard runs in an ``os.fork`` child, which sends its JSON result back over a
pipe.  So a shard's result must be JSON data, and it must not depend on
which process computes it.  ``jacobi-check`` uses it to split its Borcherds
sweep.
"""

import json
import os
import sys


def max_workers() -> int:
    """How many shards ``run_shards`` can run at once: the CPUs this process
    may run on, or 1 where there is no ``os.fork`` or where other threads
    run (a forked child has none of them, and a lock one of them held stays
    locked in the child)."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def run_shards(run_shard, workers: int) -> list:
    """[run_shard(s) for s in range(workers)], shard 0 in this process and
    each other shard in a forked child.  A child leaves only through
    ``os._exit``, so it never returns into the caller's stack.  A child's
    error, or a child that ends without a result, raises ``RuntimeError``
    here; if this process raises, the children still running are killed.
    Every child is reaped before this returns or raises."""
    pids, reads = {}, {}
    try:
        for s in range(1, workers):
            r, w = os.pipe()
            reads[s] = r
            try:
                pid = os.fork()
            except OSError:
                os.close(w)
                raise
            if pid == 0:  # the child
                code = 1
                try:
                    os.close(r)
                    try:
                        report = {"result": run_shard(s)}
                    except Exception as exc:
                        report = {"error": f"{type(exc).__name__}: {exc}"}
                    with os.fdopen(w, "w") as fh:
                        json.dump(report, fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            pids[s] = pid
        results = [run_shard(0)]
        for s in range(1, workers):
            with os.fdopen(reads.pop(s)) as fh:
                text = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids[s], 0)[1])
            del pids[s]
            report = json.loads(text) if code == 0 else {"error": f"exit status {code}"}
            if "error" in report:
                raise RuntimeError(f"worker process of shard {s} failed: {report['error']}")
            results.append(report["result"])
        return results
    finally:
        for r in reads.values():
            os.close(r)
        if pids:  # only when this process raised
            import signal  # off the import path: only this error path needs it

            for pid in pids.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

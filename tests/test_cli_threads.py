"""``jacobi-check --threads N``: the sweep split across forked processes
gives the serial report, never starts more processes than usable CPUs allow
and leaves no child behind, whatever happens."""

import os
import threading
import time

import pytest

from voablocks import cli
from voablocks.voa import CutoffOverflow, jacobi_sweep

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")

GRADE_1 = ["jacobi-check", "--grade", "1", "--cutoff-grade", "12"]


@pytest.fixture
def cpus(monkeypatch):
    def pin(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return pin


def _run(capsys, args):
    status = cli.main(args)
    out = capsys.readouterr()
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)
    return status, out.out, out.err


def _index(u, v, w):
    # position of a --grade 1 triple: the sweep runs u, v, w by grade, then by monomial
    return 4 * u.max_weight() + 2 * v.max_weight() + w.max_weight()


def _sweep_with(monkeypatch, effect):
    # jacobi_sweep, except where effect(triple index, u) returns a
    # replacement sweep; forked children inherit the patch
    def sweep(act, u, v, w, instances):
        replaced = effect(_index(u, v, w), u)
        return jacobi_sweep(act, u, v, w, instances) if replaced is None else replaced

    monkeypatch.setattr(cli, "jacobi_sweep", sweep)


def test_a_huge_thread_count_forks_at_most_usable_cpus_minus_one_children(monkeypatch, cpus, capsys):
    cpus(3)
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    serial = _run(capsys, GRADE_1 + ["--threads", "1"])
    assert forks == []
    assert _run(capsys, GRADE_1 + ["--threads", "1000000"]) == serial
    assert len(forks) == 2
    assert serial[0] == 0 and serial[2] == ""


def test_no_more_processes_than_triples(monkeypatch, cpus, capsys):
    cpus(3)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for a single triple"))
    status, out, _ = _run(capsys, ["jacobi-check", "--grade", "0", "--threads", "8"])
    assert (status, out) == (0, "triples\tindex_bound\tfailures\n1\t3\t0\n")


def test_without_fork_the_shards_run_in_the_caller(monkeypatch, cpus, capsys):
    cpus(2)
    serial = _run(capsys, GRADE_1 + ["--threads", "1"])
    monkeypatch.delattr(os, "fork")
    assert _run(capsys, GRADE_1 + ["--threads", "2"]) == serial


def test_no_fork_while_other_threads_run(monkeypatch, cpus, capsys):
    cpus(2)
    serial = _run(capsys, GRADE_1 + ["--threads", "1"])
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a running thread"))
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        assert _run(capsys, GRADE_1 + ["--threads", "2"]) == serial
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()


def test_failures_print_in_triple_order_at_every_thread_count(monkeypatch, cpus, capsys):
    cpus(2)
    # triples 1 and 5 lie in the child's shard, triple 2 in the caller's
    _sweep_with(monkeypatch, lambda i, u: [u] if i in (1, 2, 5) else None)  # u is nonzero
    want = (
        "triples\tindex_bound\tfailures\n8\t3\t3\n"
        "# FAIL\t((), (), (1,))\n"
        "# FAIL\t((), (1,), ())\n"
        "# FAIL\t((1,), (), (1,))\n"
    )
    for threads in (1, 2):
        assert _run(capsys, GRADE_1 + ["--threads", str(threads)]) == (1, want, "")


def test_the_lowest_overflowing_triple_names_the_error(monkeypatch, cpus, capsys):
    cpus(3)

    def overflow(i, u):
        # triples 5, 6 and 7 overflow in shards 2, 0 and 1, each with its index as weight
        if i >= 5:
            raise CutoffOverflow(100 + i, 12)

    _sweep_with(monkeypatch, overflow)
    want = "weight overflow: a result of weight 105 exceeded the cutoff 12; raise --cutoff-grade and retry\n"
    for threads in (1, 2, 3):
        assert _run(capsys, GRADE_1 + ["--threads", str(threads)]) == (1, "", want)


@pytest.mark.parametrize("cutoff", range(2, 15))
def test_reports_match_the_serial_sweep(cutoff, cpus, capsys):
    # the first overflowing triple is triple 0 up to cutoff 6, then triples
    # 1, 2, 6, 12, 28 and 56, which lie in children's shards; from cutoff 13
    # every triple passes
    cpus(4)
    args = ["jacobi-check", "--grade", "2", "--cutoff-grade", str(cutoff)]
    serial = _run(capsys, args + ["--threads", "1"])
    if cutoff <= 12:
        assert serial[0] == 1 and serial[2].startswith("weight overflow")
    else:
        assert serial == (0, "triples\tindex_bound\tfailures\n64\t3\t0\n", "")
    for threads in (2, 4, 8):
        assert _run(capsys, args + ["--threads", str(threads)]) == serial


def test_cutoff_7_overflows_first_in_the_second_shard(monkeypatch, capsys):
    calls = []
    _sweep_with(monkeypatch, lambda i, u: calls.append(i))
    cli.main(["jacobi-check", "--grade", "2", "--cutoff-grade", "7", "--threads", "1"])
    capsys.readouterr()
    assert calls[-1] == 1


def test_a_failing_child_is_an_error_in_the_caller(monkeypatch, cpus, capsys):
    cpus(2)
    parent = os.getpid()

    def child_error(i, u):
        if os.getpid() != parent:
            raise RuntimeError("boom")

    _sweep_with(monkeypatch, child_error)
    with pytest.raises(RuntimeError, match="shard 1 failed: RuntimeError: boom"):
        cli.main(GRADE_1 + ["--threads", "2"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_that_dies_without_a_report_is_an_error(monkeypatch, cpus, capsys):
    cpus(2)
    parent = os.getpid()
    _sweep_with(monkeypatch, lambda i, u: os._exit(3) if os.getpid() != parent else None)
    with pytest.raises(RuntimeError, match="shard 1 failed: exit status 3"):
        cli.main(GRADE_1 + ["--threads", "2"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_caller_raising_kills_and_reaps_its_children(monkeypatch, cpus, capsys):
    cpus(2)
    parent = os.getpid()

    def stall_or_fail(i, u):
        if os.getpid() != parent:
            time.sleep(60)
        raise ValueError("caller fails")

    _sweep_with(monkeypatch, stall_or_fail)
    t0 = time.perf_counter()
    assert _run(capsys, GRADE_1 + ["--threads", "2"]) == (2, "", "caller fails\n")
    assert time.perf_counter() - t0 < 30

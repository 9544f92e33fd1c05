"""Output checks of the benchmark.

Each check compares a value the program produced, already converted to
plain exact Python values (``Fraction``, tuples, dicts), with the value it
must equal, and returns ``None`` when they agree or a one-line description
of the first disagreement.  The workloads collect these descriptions; the
runner prints each on one stderr line with the workload and the input.
"""

from __future__ import annotations

import math


def _short(value, limit=120):
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def exact(got, want):
    """Exact equality of two plain values."""
    if got == want:
        return None
    return f"got {_short(got)}, want {_short(want)}"


def coefficients(got: dict, want: dict):
    """Exact equality of two {key: coefficient} maps, zero coefficients
    being the same as absent keys."""
    for key in sorted(set(got) | set(want), key=repr):
        g, w = got.get(key, 0), want.get(key, 0)
        if g != w:
            return f"coefficient at {key!r}: got {_short(g)}, want {_short(w)}"
    return None


def below(value: float, tol: float, what: str):
    """A nonnegative float strictly below ``tol`` (NaN never is)."""
    if math.isnan(value) or not value < tol:
        return f"{what} {value:.3e} is not below {tol:g}"
    return None


def relative_error(got: complex, want: complex, tol: float):
    if want == 0:
        return f"reference value is zero, got {got!r}"
    return below(abs(got - want) / abs(want), tol, "relative error")


def holds(flag, what: str):
    """A check the program evaluated itself and reported as a flag."""
    if flag is True:
        return None
    return f"{what} reported {flag!r}"


def jacobi_report(status: int, text: str, triples: int, bound: int):
    """The ``jacobi-check`` report: exit status 0, one header and one count
    row, the independently counted triples and no failures."""
    if status != 0:
        return f"exit status {status}"
    lines = text.splitlines()
    if len(lines) != 2 or lines[0] != "triples\tindex_bound\tfailures":
        return f"unexpected report {_short(text)}"
    try:
        got = tuple(int(x) for x in lines[1].split("\t"))
    except ValueError:
        return f"unparsable count row {lines[1]!r}"
    return exact(got, (triples, bound, 0))


def same_pass(cold: list, warm: list):
    """A warm pass must reproduce the cold pass operation by operation."""
    if len(cold) != len(warm):
        return f"cold pass has {len(cold)} operations, warm pass {len(warm)}"
    for (op, inp, c), (_, _, w) in zip(cold, warm):
        if c != w:
            return f"{op} {inp}: cold {_short(c)}, warm {_short(w)}"
    return None

"""Tiny dense exact linear algebra over the stored values of
``scalars.stored``: rationals and cyclotomic field elements."""

from __future__ import annotations

from .scalars import reciprocal, stored


def solve(rows, rhs, cols: int):
    """Solve an (overdetermined) exact linear system in ``cols`` unknowns.

    Returns (solution, unique) on success with free variables set to zero,
    or None when the system is inconsistent; no equations leave every
    unknown free.  The solution holds stored values.
    """
    m = len(rows)
    a = [[stored(x) for x in r] + [stored(b)] for r, b in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(cols):
        piv = None
        for r in range(row, m):
            if a[r][col]:
                piv = r
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = reciprocal(a[row][col])
        a[row] = [x * inv for x in a[row]]
        for r in range(m):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if a[r][cols]:
            return None
    x = [0] * cols
    for r, col in enumerate(pivots):
        x[col] = stored(a[r][cols])
    return x, len(pivots) == cols


def invert(matrix):
    """Exact inverse of a square matrix, or None if singular."""
    n = len(matrix)
    cols = []
    for j in range(n):
        rhs = [1 if i == j else 0 for i in range(n)]
        sol = solve(matrix, rhs, n)
        if sol is None or not sol[1]:
            return None
        cols.append(sol[0])
    return [[cols[j][i] for j in range(n)] for i in range(n)]

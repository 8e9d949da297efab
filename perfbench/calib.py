"""A fixed reference computation that measures how fast the host runs now.

The benchmark runs on shared hosts whose speed drifts by a third within
a minute.  ``unit()`` is exact-rational Gauss-Jordan elimination on a
fixed matrix: the same kind of work as the program's simplex (Python
``Fraction`` arithmetic, allocation, list indexing), written here and
independent of the program, so that no change to the program moves it.
"""

from __future__ import annotations

from fractions import Fraction

SIZE = 10


def _matrix() -> list[list[Fraction]]:
    state, rows = 12345, []
    for _ in range(SIZE):
        row = []
        for _ in range(SIZE + 1):
            state = (state * 1103515245 + 12345) % 2**31
            row.append(Fraction(state % 19 - 9, state % 7 + 1))
        rows.append(row)
    return rows


def unit() -> Fraction:
    """Solve the fixed system; returns the sum of the solution."""
    a = _matrix()
    for col in range(SIZE):
        pivot = next(r for r in range(col, SIZE) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(SIZE):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return sum(row[SIZE] for row in a)

"""Two-phase primal simplex over exact rationals.

Variables are implicitly nonnegative.  Rows are (coeffs, rel, rhs) with
rel one of ``<=``, ``=``, ``>=`` and all arithmetic in
:class:`fractions.Fraction`, so answers are exact and degeneracy is
handled by Bland's rule (lowest-index entering column, lowest basis
index on ratio ties), which rules out cycling.

This solver is deliberately dense and tableau-based: the polytopes in
this package have at most a few dozen rows and columns, and exactness
matters far more than speed.  The column count holds because every
caller merges the worlds that no row tells apart into one column (see
:mod:`cpibounds.entailment`).

The solver counts its own work: every LP solved inside a ``counting()``
block adds its pivots to that block's :class:`Stats`.  Open scopes are
process-wide (one module-level stack, like a world space's extension
cache), which is sound because the package runs no threads.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# each relation and the one it becomes when its row is negated
_MIRROR = {"<=": ">=", ">=": "<=", "=": "="}
# the open counting() scopes, innermost last
_scopes: list[Stats] = []


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    x: list[Fraction] | None
    pivots: int


@dataclass
class Stats:
    """Work the solver did inside one ``counting()`` scope."""

    pivots: int = 0


@contextmanager
def counting():
    """A fresh :class:`Stats` that every LP solved in the block adds to; scopes nest."""
    stats = Stats()
    _scopes.append(stats)
    try:
        yield stats
    finally:
        _scopes.pop()


def _pivot(tableau, basis, row, col) -> None:
    prow = tableau[row]
    inv = ONE / prow[col]
    if inv != ONE:
        tableau[row] = prow = [v * inv for v in prow]
    nonzero = [j for j, v in enumerate(prow) if v != ZERO]
    for i, r in enumerate(tableau):
        if i == row:
            continue
        factor = r[col]
        if factor != ZERO:
            for j in nonzero:
                r[j] -= factor * prow[j]
    basis[row] = col


def _run_simplex(tableau, basis) -> tuple[str, int]:
    """Minimize until reduced costs are nonnegative. Returns (status, pivots)."""
    m = len(tableau) - 1
    width = len(tableau[0]) - 1
    pivots = 0
    while True:
        obj = tableau[m]
        enter = -1
        for j in range(width):
            if obj[j] < ZERO:
                enter = j
                break
        if enter < 0:
            return "optimal", pivots
        leave = -1
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > ZERO:
                ratio = tableau[i][-1] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded", pivots
        _pivot(tableau, basis, leave, enter)
        pivots += 1


def _optimize(tableau, basis, cost) -> tuple[str, int]:
    """Price ``cost`` out against the basis, append it as the cost row and run."""
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb != ZERO:
            cost = [cj - cb * ri if ri else cj for cj, ri in zip(cost, tableau[i])]
    tableau.append(cost)
    return _run_simplex(tableau, basis)


def solve_lp(num_vars: int, rows, objective, sense: str = "min") -> LpResult:
    """Optimize ``objective . x`` subject to ``rows`` and x >= 0.

    Rows are (coeffs, rel, rhs) triples such as ``kb.LinearConstraint``;
    ``coeffs`` and ``objective`` map columns to Fractions (missing = 0).
    The pivots count in every open ``counting()`` scope.
    """
    result = _solve(num_vars, rows, objective, sense)
    for stats in _scopes:
        stats.pivots += result.pivots
    return result


def _solve(num_vars: int, rows, objective, sense: str) -> LpResult:
    if sense not in ("min", "max"):
        raise ValueError(f"bad sense {sense!r}")
    canon = []
    for coeffs, rel, rhs in rows:
        if rel not in _MIRROR:
            raise ValueError(f"bad relation {rel!r}")
        rhs = Fraction(rhs)
        # a >= row with rhs 0 holds at its slack once negated, so it needs
        # no artificial variable for phase 1 to drive out
        if rhs < ZERO or (rhs == ZERO and rel == ">="):
            coeffs = {j: -c for j, c in coeffs.items()}
            rhs = -rhs
            rel = _MIRROR[rel]
        canon.append((coeffs, rel, rhs))

    n_slack = sum(1 for _, rel, _ in canon if rel != "=")
    n_art = sum(1 for _, rel, _ in canon if rel != "<=")
    total = num_vars + n_slack + n_art
    art_start = num_vars + n_slack

    tableau = []
    basis = []
    slack_at = num_vars
    art_at = art_start
    for coeffs, rel, rhs in canon:
        line = [ZERO] * (total + 1)
        for j, c in coeffs.items():
            if not 0 <= j < num_vars:
                raise ValueError(f"column {j} out of range")
            line[j] = Fraction(c)
        line[-1] = rhs
        if rel != "=":
            line[slack_at] = ONE if rel == "<=" else -ONE
            slack_at += 1
        if rel == "<=":
            basis.append(slack_at - 1)
        else:
            line[art_at] = ONE
            basis.append(art_at)
            art_at += 1
        tableau.append(line)

    pivots = 0
    if n_art:
        # phase 1: minimize the artificial total
        cost = [ZERO] * art_start + [ONE] * n_art + [ZERO]
        status, pivots = _optimize(tableau, basis, cost)
        assert status == "optimal"  # phase-1 objective is bounded below by 0
        if -tableau[-1][-1] > ZERO:
            return LpResult("infeasible", None, None, pivots)
        tableau.pop()
        # drive leftover artificials out of the (degenerate) basis
        dead = set()
        for i, b in enumerate(basis):
            if b >= art_start:
                col = next((j for j in range(art_start) if tableau[i][j] != ZERO), None)
                if col is None:
                    dead.add(i)
                else:
                    _pivot(tableau, basis, i, col)
                    pivots += 1
        tableau = [
            r[:art_start] + r[-1:] for i, r in enumerate(tableau) if i not in dead
        ]
        basis = [b for i, b in enumerate(basis) if i not in dead]

    # phase 2
    sign = ONE if sense == "min" else -ONE
    cost = [ZERO] * (art_start + 1)
    for j, c in objective.items():
        if not 0 <= j < num_vars:
            raise ValueError(f"objective column {j} out of range")
        cost[j] = sign * Fraction(c)
    status, p = _optimize(tableau, basis, cost)
    pivots += p
    if status == "unbounded":
        return LpResult("unbounded", None, None, pivots)

    x = [ZERO] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            x[b] = tableau[i][-1]
    value = -tableau[-1][-1] * sign
    return LpResult("optimal", value, x, pivots)

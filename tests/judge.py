"""Brute-force verification oracles, the test suite's judge of the LP path.

Two oracles with complementary failure modes certify the LP path:

* :func:`grid_bounds` scans every composition of 1 into ``1/step`` parts
  over the worlds, keeps the points satisfying the axioms (and, within a
  slack, the bilinear assumptions), and reports the query range over the
  kept points.  Approximate but assumption-aware.
* :func:`vertex_bounds` enumerates the vertices of the exact constraint
  system over the worlds alone (the LP's scale column is never tight),
  walking the active sets depth first in rational echelon form and
  skipping every superset of a dependent one.  Exact but linear-only.

They live with the tests, not in the package, and import from
``cpibounds`` only the knowledge-base, sentence and error layers: the
per-world axiom rows define the problem rather than solve it, and
``test_one_builder.py`` checks that no solver module is imported here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor, gcd

import numpy as np

from cpibounds.errors import CpiboundsError
from cpibounds.kb import (
    CondIndependence,
    KnowledgeBase,
    NegativeCorrelation,
    PositiveCorrelation,
    ProbabilityInterval,
    kb_rows,
)
from cpibounds.sentences import TRUE, Sentence, WorldSpace, conjunction, extension

ZERO = Fraction(0)
ONE = Fraction(1)

MAX_GRID_POINTS = 20_000_000
# whether a row's value satisfies the row, by its relation to 0
_HOLDS = {">=": operator.ge, "<=": operator.le, "=": operator.eq}


class OracleSizeError(CpiboundsError):
    """The brute-force oracle was asked for an instance beyond its size limits."""


@dataclass(frozen=True)
class GridSearchConfig:
    step: Fraction = Fraction(1, 200)
    slack: Fraction = Fraction(1, 100)

    def __post_init__(self):
        if self.step <= 0 or (1 / self.step).denominator != 1:
            raise ValueError(f"step {self.step} must divide 1 evenly")
        if self.slack < 0:
            raise ValueError("slack must be nonnegative")


_COMPOSITION_CACHE: dict = {}


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of the given length summing to total."""
    cached = _COMPOSITION_CACHE.get((total, parts))
    if cached is not None:
        return cached
    if parts == 1:
        out = np.array([[total]], dtype=np.int64)
    else:
        blocks = []
        for first in range(total + 1):
            rest = _compositions(total - first, parts - 1)
            head = np.full((rest.shape[0], 1), first, dtype=np.int64)
            blocks.append(np.hstack([head, rest]))
        out = np.vstack(blocks)
    out.setflags(write=False)
    _COMPOSITION_CACHE[(total, parts)] = out
    return out


def grid_bounds(
    kb: KnowledgeBase,
    ws: WorldSpace,
    target: Sentence,
    given: Sentence = TRUE,
    cfg: GridSearchConfig | None = None,
):
    """Query range over grid distributions satisfying the knowledge base.

    Returns a ProbabilityInterval of exact grid ratios, or None when no
    kept grid point gives the antecedent positive mass.  Limited to five
    worlds; the grid size explodes combinatorially beyond that.
    """
    cfg = cfg or GridSearchConfig()
    n = len(ws)
    if n > 5:
        raise OracleSizeError(f"{n} worlds exceeds the 5-world grid limit")
    scale = int(1 / cfg.step)
    if comb(scale + n - 1, n - 1) > MAX_GRID_POINTS:
        raise OracleSizeError(f"grid would have more than {MAX_GRID_POINTS} points")

    counts = _compositions(scale, n)
    keep = np.ones(counts.shape[0], dtype=bool)

    # axiom rows: coeffs . x  rel  0, allowing +/- slack; scaled to integers
    # (flooring the scaled slack keeps the comparison exact on integer lhs)
    for row in kb_rows(kb, ws):
        denom = 1
        for c in row.coeffs.values():
            denom = denom * c.denominator // gcd(denom, c.denominator)
        lim = floor(cfg.slack * scale * denom)
        vec = np.zeros(n, dtype=np.int64)
        for i, c in row.coeffs.items():
            vec[i] = int(c * denom)
        lhs = counts @ vec
        if row.rel == ">=":
            keep &= lhs >= -lim
        elif row.rel == "<=":
            keep &= lhs <= lim
        else:
            keep &= np.abs(lhs) <= lim

    def mass(s):
        # each point's count on the worlds where s holds
        return counts[:, sorted(extension(s, ws))].sum(axis=1)

    # bilinear assumptions, in squared-count units: p*q -> counts/scale^2
    slack_sq = floor(cfg.slack * scale * scale)
    for a in kb.assumptions:
        if isinstance(a, CondIndependence):
            cdg = mass(conjunction(a.first, a.second, a.given))
            cg = mass(conjunction(a.first, a.given))
            dg = mass(conjunction(a.second, a.given))
            keep &= np.abs(cdg * mass(a.given) - cg * dg) <= slack_sq
        else:
            excess = mass(conjunction(a.a, a.b)) * scale - mass(a.a) * mass(a.b)
            if isinstance(a, NegativeCorrelation):
                keep &= excess <= slack_sq
            else:
                keep &= excess >= -slack_sq

    num = mass(conjunction(target, given))[keep]
    den = mass(given)[keep]
    positive = den > 0
    if not positive.any():
        return None
    num, den = num[positive], den[positive]
    ratios = num / den
    i_min = int(np.argmin(ratios))
    i_max = int(np.argmax(ratios))
    return ProbabilityInterval(
        Fraction(int(num[i_min]), int(den[i_min])),
        Fraction(int(num[i_max]), int(den[i_max])),
    )


def _minus(row, f, other):
    """row - f * other, skipping the zeros of other."""
    return [a - f * b if b else a for a, b in zip(row, other)]


def _active_set_points(fixed, candidates, need):
    """Each point that meets ``fixed`` and ``need`` of the ``candidates`` exactly.

    Every row is ``[coefficients..., rhs]``.  The walk visits the
    ``need``-subsets of ``candidates`` depth first, in lexicographic
    order, keeping ``fixed`` and the chosen rows in reduced row echelon
    form as ``(pivot column, row)`` pairs.  A candidate that reduces to
    zero depends on the rows before it, so it is skipped together with
    every subset that holds that prefix; each full-rank leaf yields its
    unique solution.
    """
    n = len(fixed) - 1

    def grow(echelon, row):
        # echelon plus row, or None when row depends on it
        for p, r in echelon:
            if row[p]:
                row = _minus(row, row[p], r)
        col = next((j for j in range(n) if row[j]), None)
        if col is None:
            return None
        inv = ONE / row[col]
        row = [a * inv if a else a for a in row]
        reduced = [(p, _minus(r, r[col], row) if r[col] else r) for p, r in echelon]
        return reduced + [(col, row)]

    def walk(echelon, start, left):
        if not left:  # full rank: one pivot in each column
            yield [r[-1] for _, r in sorted(echelon)]
            return
        for i in range(start, len(candidates) - left + 1):
            grown = grow(echelon, candidates[i])
            if grown is not None:
                yield from walk(grown, i + 1, left - 1)

    first = grow([], fixed)
    if first is not None:
        yield from walk(first, 0, need)


def vertex_bounds(
    kb: KnowledgeBase,
    ws: WorldSpace,
    target: Sentence,
    given: Sentence = TRUE,
) -> ProbabilityInterval:
    """Exact query bounds by enumerating vertices of the constraint polytope.

    The LP path solves conditional queries over the homogenized system in
    y_0..y_{n-1} and the scale t = sum y, with ``sum_{given} y = 1``.  As
    t >= sum_{given} y = 1, its axis is never tight and its row only
    defines it, so every vertex of that system is (y, sum y) for a vertex
    y of {y >= 0, axiom rows, sum_{given} y = 1}, which this enumerates
    (see :func:`_active_set_points`).  Every bounded linear objective
    attains its extrema at such vertices, so the answer is exact.  Linear
    axioms only.
    """
    if kb.assumptions:
        raise OracleSizeError("vertex enumeration handles linear axioms only")
    n = len(ws)
    rows = kb_rows(kb, ws)
    if len(rows) + n > 20:
        raise OracleSizeError("instance too large for subset enumeration")

    # rows are [coefficients..., rhs]; a candidate is tight at 0
    candidates = [[r.coeffs.get(j, ZERO) for j in range(n)] + [ZERO] for r in rows]
    candidates += [[ONE if j == k else ZERO for j in range(n + 1)] for k in range(n)]
    given_ext = extension(given, ws)
    fixed = [ONE if j in given_ext else ZERO for j in range(n)] + [ONE]
    objective = extension(conjunction(target, given), ws)
    values = [
        sum((point[i] for i in objective), ZERO)
        for point in _active_set_points(fixed, candidates, n - 1)
        if min(point) >= ZERO
        and all(
            _HOLDS[r.rel](sum(c * point[i] for i, c in r.coeffs.items()), ZERO)
            for r in rows
        )
    ]
    if not values:
        raise OracleSizeError("no feasible vertex found (infeasible or vacuous)")
    return ProbabilityInterval(min(values), max(values))

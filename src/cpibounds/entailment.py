"""Tightest entailed probability intervals via exact rational LP.

A query asks for the range of P(target | given) over every probability
distribution on the world space that satisfies the linearized axioms.
Unconditional queries are the special case given = true.  Conditional
queries are linear-fractional and are homogenized: with scaled weights
y = t*x and t = 1 / P(given), every axiom row stays valid (they are
homogeneous), the antecedent mass becomes sum_{given} y = 1, and the
objective sum_{target & given} y is the conditioned probability.  The
transformed polytope is in exact bijection with the distributions that
give the antecedent positive probability, so reported endpoints are
attained whenever the status is "determined".

When the antecedent is forced to probability zero by the axioms, the
conditional is undefined on every admissible distribution and the result
is the vacuous interval with status "vacuous_by_zero_antecedent".  The
transformed program is then empty, and one feasibility LP tells this
case apart from an axiom system that admits no distribution at all.

The LPs run over world classes, not worlds.  An axiom side's row gives a
world one of three coefficients, chosen by its membership in the side's
two extensions (see :class:`cpibounds.kb.AxiomSide`), so the classes
come straight from the extension bitmasks: the set of all worlds is
split by every side's masks and by the target's and antecedent's
(``p & m`` and ``p & ~m``), and no world is visited.  Membership alone
can split more finely than the rows do: a side pinned to 0 or 1 gives
two memberships the coefficient 0.  So one pass over the parts then
merges those with equal coefficients, target and antecedent membership,
which leaves exactly the classes of worlds that no row and neither
extension tell apart.

The merge is exact: summing the weights of each class maps the
feasible set of the full program onto that of the merged one and keeps
the objective, and any merged point spreads back over its class.  It
also keeps every pivot.  Columns of one class stay equal in every
tableau, so a later one never enters: Bland's rule takes the
lowest-index column of the class first, and once that column is basic
the others have reduced cost zero.  Numbering the classes by their
lowest world (the lowest set bit of the class mask) therefore gives the
merged LP the same pivots as the per-world one, and the merge pass
keeps the LP widths those classes give.  :func:`_class_program` is the
one builder.  A branch-and-bound query builds one program, with each
aggregate's mask as a further mask (see :mod:`cpibounds.assumptions`),
and runs its root boxes, vacuity test and node LPs on it; the
maximum-entropy support LP runs over the same classes.  One helper,
:func:`_min_max`, solves the min/max pairs of :func:`probability_bounds`
and of the root boxes.  :func:`cpibounds.kb.kb_rows` is left as the
per-world reference definition that the test suite's judge
(``tests/judge.py``) checks against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleError
from .kb import (
    KnowledgeBase,
    ProbabilityInterval,
    axiom_sides,
    kb_sides,
)
from .sentences import TRUE, Sentence, WorldSpace, conjunction, extension_mask
from .simplex import LpResult, solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)

DETERMINED = "determined"
VACUOUS = "vacuous_by_zero_antecedent"


@dataclass(frozen=True)
class QueryResult:
    """Entailed interval for one conditional query.

    ``lower_attained``/``upper_attained`` record whether some admissible
    distribution realizes the endpoint; for exact LP answers they are
    always true, and the branch-and-bound layer reports false on outer
    bounds it has not certified.  ``convergence`` is "converged" when the
    interval is the exact answer (up to the branch-and-bound tolerance)
    and "outer_bound" when the search stopped before closing its gap;
    ``nodes`` counts the branch-and-bound node LPs behind it.  An exact LP
    answer is "converged" after 0 nodes.
    """

    status: str
    interval: ProbabilityInterval | None
    lower_attained: bool = True
    upper_attained: bool = True
    convergence: str = "converged"
    nodes: int = 0


def homogenized_rows(rows, n: int, given_ext) -> list:
    """The caller's homogeneous rows, then sum_{given} y = 1, then sum y - t = 0.

    Columns 0..n-1 are the scaled weights y of the n world classes and
    column n is the scale t; callers may place further columns after t.
    """
    scale = {i: ONE for i in range(n)}
    scale[n] = -ONE
    return [*rows, ({i: ONE for i in given_ext}, "=", ONE), (scale, "=", ZERO)]


def _class_program(sides, n: int, masks) -> tuple[list, list, list]:
    """One column per class of worlds that no side and no mask tell apart.

    ``sides`` are :class:`cpibounds.kb.AxiomSide` records over ``n``
    worlds.  Returns each class's mask (their count is the LP width),
    one row per side over class columns and each of ``masks`` as a set
    of classes.  The parts of the world set are split by every mask,
    then merged on equal coefficients and memberships, and the classes
    are numbered by their lowest world, so Bland's rule meets the
    columns in the order it would have.
    """
    parts = [(1 << n) - 1]
    for m in dict.fromkeys([*(m for side in sides for m in (side.both, side.ante)), *masks]):
        parts = [q for p in parts for q in (p & m, p & ~m) if q]
    # a part lies wholly inside or outside each mask, and its coefficient
    # in a side's row is values[code]: code 2 inside ``both``, 1 inside
    # ``ante`` alone, and 0 elsewhere or where that coefficient is zero (a
    # side pinned to 0 or 1); parts with equal keys share a class
    values = [(ZERO, -side.bound, ONE - side.bound) for side in sides]
    codes = [(2 if value[2] else 0, 1 if value[1] else 0) for value in values]
    classes: dict = {}
    for p in parts:
        key = (
            *(in_both if p & side.both else in_ante if p & side.ante else 0
              for side, (in_both, in_ante) in zip(sides, codes)),
            *(bool(p & m) for m in masks),
        )
        classes[key] = classes.get(key, 0) | p
    ordered = sorted(classes.items(), key=lambda item: item[1] & -item[1])
    keys = [key for key, _ in ordered]
    rows = [
        ({c: value[key[r]] for c, key in enumerate(keys) if key[r]}, side.rel, ZERO)
        for r, (side, value) in enumerate(zip(sides, values))
    ]
    sets = [
        {c for c, key in enumerate(keys) if key[j]}
        for j in range(len(sides), len(sides) + len(masks))
    ]
    return [c for _, c in ordered], rows, sets


def probability_bounds(sides, n: int, target, given) -> tuple[LpResult, LpResult]:
    """Min and max of the mass of ``target`` over the homogenized program.

    ``target`` and ``given`` are masks over the ``n`` worlds.  With
    ``target`` the worlds of target & given, these are the extremes of
    P(target | given); both LPs are infeasible exactly when no admissible
    distribution gives the antecedent positive probability.  The LPs run
    over world classes, one weight per class.
    """
    classes, rows, (target_ext, given_ext) = _class_program(sides, n, (target, given))
    k = len(classes)
    return _min_max(k + 1, homogenized_rows(rows, k, given_ext), target_ext)


def _min_max(ncols: int, rows, objective_ext) -> tuple[LpResult, LpResult]:
    """Min, then max, of the sum of the ``objective_ext`` columns over ``rows``.

    An infeasible min LP is returned for both: phase 1 ignores the
    objective, so the max LP would be infeasible too.
    """
    objective = dict.fromkeys(objective_ext, ONE)
    low = solve_lp(ncols, rows, objective, "min")
    if low.status == "infeasible":
        return low, low
    return low, solve_lp(ncols, rows, objective, "max")


def _feasibility(sides, n: int) -> LpResult:
    """Phase 1 of the homogenized program over every world (scale t = 1)."""
    classes, rows, _ = _class_program(sides, n, ())
    k = len(classes)
    return solve_lp(k + 1, homogenized_rows(rows, k, range(k)), {}, "min")


def feasible(kb: KnowledgeBase, ws: WorldSpace) -> bool:
    """True iff some distribution over ws satisfies every linearized axiom.

    Assumptions are not consulted: their root McCormick relaxation is
    feasible exactly when the axioms are (set each product column to the
    probability of the conjunction of its factors), so only the
    branch-and-bound search can find them inconsistent with the axioms.
    """
    return _feasibility(kb_sides(kb, ws), len(ws)).status == "optimal"


def feasible_subset(kb: KnowledgeBase, ws: WorldSpace, axiom_indices) -> bool:
    """:func:`feasible` with only the selected axioms active."""
    sides = [side for i in axiom_indices for side in axiom_sides(kb.axioms[i], ws)]
    return _feasibility(sides, len(ws)).status == "optimal"


def entail_conditional(
    kb: KnowledgeBase, ws: WorldSpace, target: Sentence, given: Sentence = TRUE
) -> QueryResult:
    """Exact [min, max] of P(target | given) over the axiom-feasible set.

    Raises InfeasibleError when no distribution satisfies the axioms.
    """
    sides = kb_sides(kb, ws)
    n = len(ws)
    low, high = probability_bounds(
        sides, n, extension_mask(conjunction(target, given), ws), extension_mask(given, ws)
    )
    if low.status == "infeasible":
        # either no admissible distribution exists, or every one of them
        # gives the antecedent probability zero
        if _feasibility(sides, n).status == "infeasible":
            raise InfeasibleError("axiom system admits no distribution")
        return QueryResult(VACUOUS, ProbabilityInterval.vacuous(), False, False)
    assert low.status == "optimal" and high.status == "optimal"
    return QueryResult(DETERMINED, ProbabilityInterval(low.value, high.value))


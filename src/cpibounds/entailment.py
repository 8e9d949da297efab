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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleError
from .kb import (
    KnowledgeBase,
    ProbabilityInterval,
    kb_rows,
    linearize,
)
from .sentences import TRUE, Sentence, WorldSpace, conjunction, extension
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

    Columns 0..n-1 are the scaled world weights y and column n is the
    scale t; callers may place further columns after t.
    """
    scale = {i: ONE for i in range(n)}
    scale[n] = -ONE
    return [*rows, ({i: ONE for i in given_ext}, "=", ONE), (scale, "=", ZERO)]


def probability_bounds(rows, n: int, target_ext, given_ext) -> tuple[LpResult, LpResult]:
    """Min and max of sum_{target_ext} y over the homogenized program.

    With ``target_ext`` the worlds of target & given, these are the
    extremes of P(target | given); both LPs are infeasible exactly when
    no admissible distribution gives the antecedent positive probability.
    """
    lp_rows = homogenized_rows(rows, n, given_ext)
    objective = {i: ONE for i in target_ext}
    return (
        solve_lp(n + 1, lp_rows, objective, "min"),
        solve_lp(n + 1, lp_rows, objective, "max"),
    )


def _feasibility(rows, n: int) -> LpResult:
    """Phase 1 of the homogenized program over every world (scale t = 1)."""
    return solve_lp(n + 1, homogenized_rows(rows, n, range(n)), {}, "min")


def feasible(kb: KnowledgeBase, ws: WorldSpace) -> bool:
    """True iff some distribution over ws satisfies every linearized axiom.

    Assumptions are not consulted: their root McCormick relaxation is
    feasible exactly when the axioms are (set each product column to the
    probability of the conjunction of its factors), so only the
    branch-and-bound search can find them inconsistent with the axioms.
    """
    return _feasibility(kb_rows(kb, ws), len(ws)).status == "optimal"


def feasible_subset(kb: KnowledgeBase, ws: WorldSpace, axiom_indices) -> bool:
    """:func:`feasible` with only the selected axioms active."""
    rows = []
    for i in axiom_indices:
        rows.extend(linearize(kb.axioms[i], ws))
    return _feasibility(rows, len(ws)).status == "optimal"


def entail_conditional(
    kb: KnowledgeBase, ws: WorldSpace, target: Sentence, given: Sentence = TRUE
) -> QueryResult:
    """Exact [min, max] of P(target | given) over the axiom-feasible set.

    Raises InfeasibleError when no distribution satisfies the axioms.
    """
    rows = kb_rows(kb, ws)
    n = len(ws)
    low, high = probability_bounds(
        rows, n, extension(conjunction(target, given), ws), extension(given, ws)
    )
    if low.status == "infeasible":
        # either no admissible distribution exists, or every one of them
        # gives the antecedent probability zero
        if _feasibility(rows, n).status == "infeasible":
            raise InfeasibleError("axiom system admits no distribution")
        return QueryResult(VACUOUS, ProbabilityInterval.vacuous(), False, False)
    assert low.status == "optimal" and high.status == "optimal"
    return QueryResult(DETERMINED, ProbabilityInterval(low.value, high.value))


def entail_unconditional(
    kb: KnowledgeBase, ws: WorldSpace, target: Sentence
) -> QueryResult:
    return entail_conditional(kb, ws, target, TRUE)


def entail_all(kb: KnowledgeBase, ws: WorldSpace) -> dict:
    """One QueryResult per registered query, keyed by (target, given)."""
    return {
        (target, given): entail_conditional(kb, ws, target, given)
        for target, given in kb.queries
    }

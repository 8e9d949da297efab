"""Entailment under bilinear augmenting assumptions.

Conditional independence and correlation-sign assumptions are bilinear
in aggregate probabilities: independence of C and D given G is stored in
cleared-denominator form

    p(C & D & G) * p(G) = p(C & G) * p(D & G)

(which holds vacuously when p(G) = 0), and a correlation sign is
p(A & B) <= or >= p(A) * p(B).  Each aggregate p(S) gets an LP column
tied to its worlds, each product gets a fresh column bounded by the four
McCormick envelope planes over the current aggregate boxes, and queries
run through the same homogenizing transform as plain conditional
entailment (envelope constants are multiplied by the scale column, so
the relaxation stays linear and exact).

Branch-and-bound then splits aggregate boxes at relaxation optima until
either the outer bounds meet an exactly-feasible incumbent within the
tolerance or the node cap is hit.  Every reported interval is an outer
bound: it contains the true augmented-entailment interval at any stop
point, and only tightens as boxes shrink.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleAugmentedError
from .kb import (
    CondIndependence,
    KnowledgeBase,
    NegativeCorrelation,
    PositiveCorrelation,
    ProbabilityInterval,
    kb_rows,
)
from .entailment import (
    DETERMINED,
    VACUOUS,
    QueryResult,
    entail_conditional,
    homogenized_rows,
    probability_bounds,
)
from .sentences import TRUE, Sentence, WorldSpace, conjunction, extension
from .simplex import solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_TOLERANCE = Fraction(1, 10**6)
DEFAULT_NODE_CAP = 10_000
# split points are clamped this fraction of the box width away from its edges
EDGE_CLAMP = Fraction(1, 100)


# a side is an aggregate id, or a product of two aggregate ids
Side = int | tuple[int, int]


@dataclass(frozen=True)
class BilinearConstraint:
    """left rel right, where each side is an aggregate or a product of two.

    A side that is a bare aggregate id plays the role of "times the
    constant 1" in the unnormalized space (the constant becomes the
    homogenization scale after the conditional-query transform).
    """

    left: Side
    rel: str  # "=", "<=", ">="
    right: Side


class AggregatePool:
    """Interns aggregate sentences so ids are shared across assumptions."""

    def __init__(self, ws: WorldSpace):
        self.ws = ws
        self.sentences: list[Sentence] = []
        self._ids: dict[Sentence, int] = {}

    def aggregate(self, sentence: Sentence) -> int:
        found = self._ids.get(sentence)
        if found is not None:
            return found
        idx = len(self.sentences)
        self.sentences.append(sentence)
        self._ids[sentence] = idx
        return idx

    def describe(self, c: BilinearConstraint) -> str:
        def side(s) -> str:
            if isinstance(s, tuple):
                return f"p({self.sentences[s[0]]}) * p({self.sentences[s[1]]})"
            return f"p({self.sentences[s]})"

        return f"{side(c.left)} {c.rel} {side(c.right)}"


def encode_assumption(assumption, pool: AggregatePool) -> list[BilinearConstraint]:
    """Bilinear form of one assumption, with aggregates interned in the pool."""
    if isinstance(assumption, CondIndependence):
        c, d, g = assumption.first, assumption.second, assumption.given
        if g == TRUE:
            left: Side = pool.aggregate(conjunction(c, d))
        else:
            left = (
                pool.aggregate(conjunction(c, d, g)),
                pool.aggregate(g),
            )
        right = (
            pool.aggregate(conjunction(c, g)),
            pool.aggregate(conjunction(d, g)),
        )
        return [BilinearConstraint(left, "=", right)]
    if isinstance(assumption, (PositiveCorrelation, NegativeCorrelation)):
        rel = ">=" if isinstance(assumption, PositiveCorrelation) else "<="
        left = pool.aggregate(conjunction(assumption.a, assumption.b))
        right = (pool.aggregate(assumption.a), pool.aggregate(assumption.b))
        return [BilinearConstraint(left, rel, right)]
    raise TypeError(f"unknown assumption {assumption!r}")


@dataclass(frozen=True)
class EnvelopeCut:
    """One McCormick plane: z rel u_coeff*u + v_coeff*v + constant."""

    rel: str  # ">=" or "<="
    u_coeff: Fraction
    v_coeff: Fraction
    constant: Fraction


def mccormick_envelopes(
    u_bounds: ProbabilityInterval, v_bounds: ProbabilityInterval
) -> list[EnvelopeCut]:
    """The four planes bounding z = u*v over the box u_bounds x v_bounds."""
    lu, hu = u_bounds.lower, u_bounds.upper
    lv, hv = v_bounds.lower, v_bounds.upper
    return [
        EnvelopeCut(">=", lv, lu, -lu * lv),
        EnvelopeCut(">=", hv, hu, -hu * hv),
        EnvelopeCut("<=", lv, hu, -hu * lv),
        EnvelopeCut("<=", hv, lu, -lu * hv),
    ]


def envelope_range(cuts, u_value, v_value) -> ProbabilityInterval:
    """The z interval the cuts admit at a fixed (u, v) point."""
    lo = max(
        c.u_coeff * u_value + c.v_coeff * v_value + c.constant
        for c in cuts
        if c.rel == ">="
    )
    hi = min(
        c.u_coeff * u_value + c.v_coeff * v_value + c.constant
        for c in cuts
        if c.rel == "<="
    )
    return ProbabilityInterval(lo, hi)


class _AugmentedProblem:
    """Static data for one augmented query; node LPs are built per box set."""

    def __init__(self, rows, assumptions, ws: WorldSpace, target, given):
        self.ws = ws
        self.n = len(ws)
        self.pool = AggregatePool(ws)
        self.constraints: list[BilinearConstraint] = []
        for a in assumptions:
            self.constraints.extend(encode_assumption(a, self.pool))
        self.k_rows = rows
        self.given_ext = extension(given, ws)
        self.obj_ext = extension(conjunction(target, given), ws)
        # products, deduplicated on the normalized id pair
        prods = []
        for c in self.constraints:
            for side in (c.left, c.right):
                if isinstance(side, tuple):
                    key = tuple(sorted(side))
                    if key not in prods:
                        prods.append(key)
        self.products: list[tuple[int, int]] = prods
        self.n_aggs = len(self.pool.sentences)
        # column layout: y worlds | t | aggregates | products
        self.t_col = self.n
        self.agg_col = self.n + 1
        self.prod_col = self.agg_col + self.n_aggs
        self.ncols = self.prod_col + len(self.products)

    def side_col(self, side) -> int:
        if isinstance(side, tuple):
            return self.prod_col + self.products.index(tuple(sorted(side)))
        return self.agg_col + side

    def node_rows(self, boxes):
        rows = list(self.k_rows)
        for k, sentence in enumerate(self.pool.sentences):
            coeffs = {i: ONE for i in extension(sentence, self.ws)}
            coeffs[self.agg_col + k] = coeffs.get(self.agg_col + k, ZERO) - ONE
            rows.append((coeffs, "=", ZERO))
            box = boxes[k]
            if box.lower > ZERO:
                rows.append(
                    ({self.agg_col + k: ONE, self.t_col: -box.lower}, ">=", ZERO)
                )
            if box.upper < ONE:
                rows.append(
                    ({self.agg_col + k: ONE, self.t_col: -box.upper}, "<=", ZERO)
                )
        for p, (u, v) in enumerate(self.products):
            z = self.prod_col + p
            for cut in mccormick_envelopes(boxes[u], boxes[v]):
                coeffs = {z: ONE}
                coeffs[self.agg_col + u] = coeffs.get(self.agg_col + u, ZERO) - cut.u_coeff
                coeffs[self.agg_col + v] = coeffs.get(self.agg_col + v, ZERO) - cut.v_coeff
                coeffs[self.t_col] = coeffs.get(self.t_col, ZERO) - cut.constant
                rows.append((coeffs, cut.rel, ZERO))
        for c in self.constraints:
            lcol, rcol = self.side_col(c.left), self.side_col(c.right)
            if lcol == rcol:
                continue
            rows.append(({lcol: ONE, rcol: -ONE}, c.rel, ZERO))
        return homogenized_rows(rows, self.n, self.given_ext)

    def solve_node(self, boxes, sense: str):
        objective = {i: ONE for i in self.obj_ext}
        return solve_lp(self.ncols, self.node_rows(boxes), objective, sense)

    def point_of(self, lp):
        """Map an LP solution back to x-space aggregate and product values."""
        t = lp.x[self.t_col]
        aggs = [lp.x[self.agg_col + k] / t for k in range(self.n_aggs)]
        prods = [lp.x[self.prod_col + p] / t for p in range(len(self.products))]
        return aggs, prods

    def exactly_feasible(self, aggs) -> bool:
        """Do the true bilinear relations hold at this aggregate valuation?"""

        def value(side) -> Fraction:
            if isinstance(side, tuple):
                return aggs[side[0]] * aggs[side[1]]
            return aggs[side]

        for c in self.constraints:
            left, right = value(c.left), value(c.right)
            if c.rel == "=" and left != right:
                return False
            if c.rel == "<=" and left > right:
                return False
            if c.rel == ">=" and left < right:
                return False
        return True

    def worst_violation(self, aggs, prods):
        """(violation, product index) of the largest envelope gap."""
        worst = (ZERO, 0)
        for p, (u, v) in enumerate(self.products):
            gap = abs(prods[p] - aggs[u] * aggs[v])
            if gap > worst[0]:
                worst = (gap, p)
        return worst


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with the smallest denominator in [lo, hi]."""
    if lo > hi:
        raise ValueError("empty interval")
    if lo == hi:
        return lo
    n = lo.numerator // lo.denominator
    if lo == n:
        return Fraction(n)
    if n + 1 <= hi:
        return Fraction(n + 1)
    return n + 1 / simplest_between(1 / (hi - n), 1 / (lo - n))


def _split_box(box: ProbabilityInterval, at: Fraction):
    # keep the split near the relaxation optimum but snapped to the simplest
    # rational in a small window, so box denominators stay bounded across
    # branching depth (split values feed the McCormick coefficients)
    width = box.width
    lo = box.lower + width * EDGE_CLAMP
    hi = box.upper - width * EDGE_CLAMP
    at = min(max(at, lo), hi)
    window = width / 50
    split = simplest_between(max(lo, at - window), min(hi, at + window))
    return (
        ProbabilityInterval(box.lower, split),
        ProbabilityInterval(split, box.upper),
    )


def _bb_run(problem: _AugmentedProblem, root_boxes, sense, tolerance, node_cap):
    """One directional search.

    Returns (outer bound, converged, nodes, incumbent value or None); stops
    once the incumbent is within the tolerance of the heap's best bound.
    The outer bound is valid at any stop point: every region is either still
    on the heap with a bound no better than it, was proven infeasible, or
    cannot beat the incumbent.
    """
    sign = 1 if sense == "min" else -1

    def score(v):
        return v * sign

    counter = itertools.count()
    # heap entries: (parent bound score, tiebreak, boxes); parent bound is a
    # valid outer bound for the node's whole region
    heap = [(Fraction(-(10**12)), next(counter), root_boxes)]
    incumbent: Fraction | None = None
    nodes = 0
    node_cap = max(1, node_cap)
    while heap and nodes < node_cap:
        if incumbent is not None and score(incumbent) - heap[0][0] <= tolerance:
            break
        stored_score, _, boxes = heapq.heappop(heap)
        if incumbent is not None and stored_score >= score(incumbent):
            continue  # region cannot beat the incumbent
        lp = problem.solve_node(boxes, sense)
        nodes += 1
        if lp.status == "infeasible":
            continue
        bound = lp.value
        if incumbent is not None and score(bound) >= score(incumbent):
            continue
        aggs, prods = problem.point_of(lp)
        if problem.exactly_feasible(aggs):
            incumbent = bound  # relaxation optimum attained by a real point
            continue
        _, prod_idx = problem.worst_violation(aggs, prods)
        u, v = problem.products[prod_idx]
        pick = u if boxes[u].width >= boxes[v].width else v
        for child in _split_box(boxes[pick], aggs[pick]):
            new_boxes = list(boxes)
            new_boxes[pick] = child
            heapq.heappush(heap, (score(bound), next(counter), tuple(new_boxes)))
    if heap:
        outer_score = min(entry[0] for entry in heap)
        if incumbent is not None:
            outer_score = min(outer_score, score(incumbent))
        outer = outer_score * sign
        converged = (
            incumbent is not None and score(incumbent) - outer_score <= tolerance
        )
    elif incumbent is not None:
        outer = incumbent  # every region fathomed: the incumbent is exact
        converged = True
    else:
        raise InfeasibleAugmentedError(
            "assumptions are inconsistent with the axioms (all regions infeasible)"
        )
    return outer, converged, nodes, incumbent


def entail_augmented(
    kb: KnowledgeBase,
    ws: WorldSpace,
    target: Sentence,
    given: Sentence = TRUE,
    tolerance: Fraction = DEFAULT_TOLERANCE,
    node_cap: int = DEFAULT_NODE_CAP,
) -> QueryResult:
    """Outer bounds on P(target | given) under axioms plus assumptions.

    The interval always contains the true augmented-entailment interval.
    Convergence is reported when both directional searches closed their
    incumbent gap within the tolerance.  With no assumptions this is
    exactly plain conditional entailment.
    """
    if not kb.assumptions:
        return entail_conditional(kb, ws, target, given)
    tolerance = Fraction(tolerance)
    rows = kb_rows(kb, ws)
    problem = _AugmentedProblem(rows, kb.assumptions, ws, target, given)

    # initial boxes: each McCormick factor's range under the axioms alone;
    # any other aggregate keeps the unit box, which emits no row (its range
    # is already implied by the axiom rows of every node LP)
    factors = {k for product in problem.products for k in product}
    boxes = []
    for k, sentence in enumerate(problem.pool.sentences):
        if k not in factors:
            boxes.append(ProbabilityInterval.vacuous())
            continue
        lo_lp, hi_lp = probability_bounds(
            rows, problem.n, extension(sentence, ws), range(problem.n)
        )
        if lo_lp.status == "infeasible":
            raise InfeasibleAugmentedError("axiom system alone is already infeasible")
        boxes.append(ProbabilityInterval(lo_lp.value, hi_lp.value))
    root_boxes = tuple(boxes)

    if given != TRUE:
        # sound vacuity test: max antecedent mass over the relaxed system
        vac_problem = _AugmentedProblem(rows, kb.assumptions, ws, given, TRUE)
        lp = vac_problem.solve_node(root_boxes, "max")
        if lp.status == "infeasible":
            raise InfeasibleAugmentedError(
                "assumptions are inconsistent with the axioms"
            )
        if lp.value == ZERO:
            return QueryResult(VACUOUS, ProbabilityInterval.vacuous(), False, False)

    lo, lo_conv, lo_nodes, lo_inc = _bb_run(problem, root_boxes, "min", tolerance, node_cap)
    hi, hi_conv, hi_nodes, hi_inc = _bb_run(problem, root_boxes, "max", tolerance, node_cap)
    nodes = lo_nodes + hi_nodes
    if given != TRUE and lo_inc is None and hi_inc is None:
        # no exactly-feasible point with positive antecedent mass was found,
        # so the conditional could still be undefined everywhere: widen to
        # the only interval that is safe in that case
        return QueryResult(
            DETERMINED, ProbabilityInterval.vacuous(), False, False, "outer_bound", nodes
        )
    if lo > hi:
        raise InfeasibleAugmentedError(
            "directional bounds crossed: the augmented system has no solution"
        )
    return QueryResult(
        DETERMINED,
        ProbabilityInterval(lo, hi),
        lower_attained=lo_inc is not None and lo_inc == lo,
        upper_attained=hi_inc is not None and hi_inc == hi,
        convergence="converged" if lo_conv and hi_conv else "outer_bound",
        nodes=nodes,
    )

"""Entailment under bilinear augmenting assumptions.

Conditional independence and correlation-sign assumptions are bilinear
in aggregate probabilities: independence of C and D given G is stored in
cleared-denominator form

    p(C & D & G) * p(G) = p(C & G) * p(D & G)

(which holds vacuously when p(G) = 0), and a correlation sign is
p(A & B) <= or >= p(A) * p(B).  :func:`encode_assumption` returns this
form as plain data, ``(left, rel, right)``, where each side is a tuple
of one or two sentences whose probabilities multiply.  Each query's
:class:`_AugmentedProblem` numbers the distinct aggregate sentences
once, in first-appearance order, and the distinct products once, by
their sorted id pair.  Each aggregate p(S) gets an LP column tied to its worlds,
each product gets a fresh column bounded by the four McCormick envelope
planes over the current aggregate boxes, and queries run through the
same homogenizing transform as plain conditional entailment (envelope
constants are multiplied by the scale column, so the relaxation stays
linear and exact).

Branch-and-bound starts from each McCormick factor's range under the
axioms alone and splits aggregate boxes at relaxation optima until
either the outer bounds meet an exactly-feasible incumbent within the
tolerance or the node cap is hit.  Every reported interval is an outer
bound: it contains the true augmented-entailment interval at any stop
point, and only tightens as boxes shrink.  The root-box LPs and the
vacuity test of a conditional query run on the query's own program, so
each query builds one.  Assumptions that contradict each other or the
axioms raise ``InfeasibleError``, as inconsistent axioms do: they are
further rows of the same system.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleError
from .kb import (
    CondIndependence,
    KnowledgeBase,
    NegativeCorrelation,
    PositiveCorrelation,
    ProbabilityInterval,
    kb_sides,
)
from .entailment import (
    DETERMINED,
    VACUOUS,
    QueryResult,
    _class_program,
    _min_max,
    entail_conditional,
    homogenized_rows,
)
from .sentences import TRUE, Sentence, WorldSpace, conjunction, extension_mask
from .simplex import solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_TOLERANCE = Fraction(1, 10**6)
DEFAULT_NODE_CAP = 10_000
# split points are clamped this fraction of the box width away from its edges
EDGE_CLAMP = Fraction(1, 100)
_HOLDS = {"=": operator.eq, "<=": operator.le, ">=": operator.ge}


def encode_assumption(assumption) -> tuple:
    """Bilinear form of one assumption, ``(left, rel, right)``.

    Each side is a tuple of one or two aggregate sentences whose
    probabilities multiply.  A side of one sentence plays the role of
    "times the constant 1" in the unnormalized space (the constant becomes
    the homogenization scale after the conditional-query transform).
    """
    if isinstance(assumption, CondIndependence):
        c, d, g = assumption.first, assumption.second, assumption.given
        left = (conjunction(c, d),) if g == TRUE else (conjunction(c, d, g), g)
        return left, "=", (conjunction(c, g), conjunction(d, g))
    if isinstance(assumption, (PositiveCorrelation, NegativeCorrelation)):
        rel = ">=" if isinstance(assumption, PositiveCorrelation) else "<="
        return (conjunction(assumption.a, assumption.b),), rel, (assumption.a, assumption.b)
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


class _AugmentedProblem:
    """Static data for one augmented query; node LPs are built per box set.

    The y columns are the world classes of :mod:`cpibounds.entailment`,
    split also by every aggregate, whose tie row sums whole classes.
    """

    def __init__(self, sides, assumptions, ws: WorldSpace, target, given):
        # aggregates are numbered in first-appearance order, each side of a
        # relation becomes its sorted id tuple, and the products are the
        # distinct id pairs in first-appearance order
        ids: dict[Sentence, int] = {}

        def number(side) -> tuple:
            return tuple(sorted(ids.setdefault(s, len(ids)) for s in side))

        self.relations = [
            (number(left), rel, number(right))
            for left, rel, right in map(encode_assumption, assumptions)
        ]
        self.aggregates: list[Sentence] = list(ids)
        self.products: list[tuple[int, int]] = list(dict.fromkeys(
            side for left, _, right in self.relations for side in (left, right)
            if len(side) == 2
        ))
        masks = [
            extension_mask(conjunction(target, given), ws),
            extension_mask(given, ws),
            *(extension_mask(s, ws) for s in self.aggregates),
        ]
        classes, self.class_rows, (self.obj_ext, self.given_ext, *self.agg_exts) = (
            _class_program(sides, len(ws), masks)
        )
        self.n_aggs = len(self.aggregates)
        # column layout: y classes | t | aggregates | products
        self.t_col = len(classes)
        self.agg_col = self.t_col + 1
        self.prod_col = self.agg_col + self.n_aggs
        self.ncols = self.prod_col + len(self.products)
        col = {(k,): self.agg_col + k for k in range(self.n_aggs)}
        col.update((pair, self.prod_col + p) for p, pair in enumerate(self.products))
        self.relation_rows = [
            ({col[left]: ONE, col[right]: -ONE}, rel, ZERO)
            for left, rel, right in self.relations
            if left != right
        ]
        # sum_{classes of S} y - a_S = 0, one per aggregate
        self.ties = [
            ({**dict.fromkeys(ext, ONE), self.agg_col + k: -ONE}, "=", ZERO)
            for k, ext in enumerate(self.agg_exts)
        ]

    def node_rows(self, boxes, antecedent):
        """The node LP's rows, homogenized with ``antecedent``'s classes at mass 1."""
        rows = list(self.class_rows)
        for k, (tie, box) in enumerate(zip(self.ties, boxes)):
            rows.append(tie)
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
        rows.extend(self.relation_rows)
        return homogenized_rows(rows, self.t_col, antecedent)

    def exactly_feasible(self, aggs) -> bool:
        """Do the true bilinear relations hold at this aggregate valuation?"""
        return all(
            _HOLDS[rel](math.prod(aggs[k] for k in left), math.prod(aggs[k] for k in right))
            for left, rel, right in self.relations
        )


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

    Returns (outer bound, nodes, incumbent value or None); stops once the
    incumbent is within the tolerance of the heap's best bound.  The outer
    bound is valid at any stop point: every region is either still on the
    heap with a bound no better than it, was proven infeasible, or cannot
    beat the incumbent.
    """
    sign = 1 if sense == "min" else -1

    def score(v):
        return v * sign

    objective = dict.fromkeys(problem.obj_ext, ONE)
    counter = itertools.count()
    # heap entries: (parent bound score, tiebreak, boxes); parent bound is a
    # valid outer bound for the node's whole region
    heap = [(Fraction(-(10**12)), next(counter), root_boxes)]
    incumbent: Fraction | None = None
    nodes = 0
    while heap and nodes < node_cap:
        if incumbent is not None and score(incumbent) - heap[0][0] <= tolerance:
            break
        stored_score, _, boxes = heapq.heappop(heap)
        if incumbent is not None and stored_score >= score(incumbent):
            continue  # region cannot beat the incumbent
        rows = problem.node_rows(boxes, problem.given_ext)
        lp = solve_lp(problem.ncols, rows, objective, sense)
        nodes += 1
        if lp.status == "infeasible":
            continue
        bound = lp.value
        if incumbent is not None and score(bound) >= score(incumbent):
            continue
        # the relaxation optimum in x-space: aggregate values, then products
        t = lp.x[problem.t_col]
        point = [value / t for value in lp.x[problem.agg_col:]]
        aggs, prods = point[:problem.n_aggs], point[problem.n_aggs:]
        if problem.exactly_feasible(aggs):
            incumbent = bound  # relaxation optimum attained by a real point
            continue
        # branch on the product with the widest envelope gap, the first on ties
        gaps = [abs(z - aggs[u] * aggs[v]) for z, (u, v) in zip(prods, problem.products)]
        u, v = problem.products[gaps.index(max(gaps))]
        pick = u if boxes[u].width >= boxes[v].width else v
        for child in _split_box(boxes[pick], aggs[pick]):
            new_boxes = list(boxes)
            new_boxes[pick] = child
            heapq.heappush(heap, (score(bound), next(counter), tuple(new_boxes)))
    if heap:
        outer_score = heap[0][0] if incumbent is None else min(heap[0][0], score(incumbent))
        return outer_score * sign, nodes, incumbent
    if incumbent is None:
        raise InfeasibleError(
            "assumptions are inconsistent with the axioms (all regions infeasible)"
        )
    return incumbent, nodes, incumbent  # every region fathomed: the incumbent is exact


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
    Convergence is reported when both directional searches found an
    incumbent within the tolerance of their outer bound.  With no
    assumptions this is exactly plain conditional entailment.  Raises
    ValueError when ``node_cap`` is below 1 or ``tolerance`` is negative.
    """
    if node_cap < 1:
        raise ValueError(f"node_cap must be at least 1, got {node_cap}")
    tolerance = Fraction(tolerance)
    if tolerance < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tolerance}")
    if not kb.assumptions:
        return entail_conditional(kb, ws, target, given)
    problem = _AugmentedProblem(kb_sides(kb, ws), kb.assumptions, ws, target, given)

    # initial boxes: each McCormick factor's range under the axioms alone, on
    # the query's classes (finer, same pivots) with every class at mass 1;
    # any other aggregate keeps the unit box, which emits no row (its range
    # is already implied by the axiom rows of every node LP)
    axiom_rows = homogenized_rows(problem.class_rows, problem.t_col, range(problem.t_col))
    boxes = [ProbabilityInterval.vacuous()] * problem.n_aggs
    for k in sorted({k for product in problem.products for k in product}):
        lo_lp, hi_lp = _min_max(problem.t_col + 1, axiom_rows, problem.agg_exts[k])
        if lo_lp.status == "infeasible":
            raise InfeasibleError("axiom system alone is already infeasible")
        boxes[k] = ProbabilityInterval(lo_lp.value, hi_lp.value)
    root_boxes = tuple(boxes)

    if given != TRUE:
        # sound vacuity test: max antecedent mass over the relaxed system on the
        # query's classes (finer, same pivots), every class at mass 1 (t = 1)
        rows = problem.node_rows(root_boxes, range(problem.t_col))
        lp = solve_lp(problem.ncols, rows, dict.fromkeys(problem.given_ext, ONE), "max")
        if lp.status == "infeasible":
            raise InfeasibleError("assumptions are inconsistent with the axioms")
        if lp.value == ZERO:
            return QueryResult(VACUOUS, ProbabilityInterval.vacuous(), False, False)

    lo, lo_nodes, lo_inc = _bb_run(problem, root_boxes, "min", tolerance, node_cap)
    hi, hi_nodes, hi_inc = _bb_run(problem, root_boxes, "max", tolerance, node_cap)
    nodes = lo_nodes + hi_nodes
    if given != TRUE and lo_inc is None and hi_inc is None:
        # no exactly-feasible point with positive antecedent mass was found,
        # so the conditional could still be undefined everywhere: widen to
        # the only interval that is safe in that case
        return QueryResult(
            DETERMINED, ProbabilityInterval.vacuous(), False, False, "outer_bound", nodes
        )
    if lo > hi:
        raise InfeasibleError(
            "directional bounds crossed: the augmented system has no solution"
        )
    converged = all(inc is not None and abs(inc - outer) <= tolerance
                    for outer, inc in ((lo, lo_inc), (hi, hi_inc)))
    return QueryResult(
        DETERMINED,
        ProbabilityInterval(lo, hi),
        lower_attained=lo_inc is not None and lo_inc == lo,
        upper_attained=hi_inc is not None and hi_inc == hi,
        convergence="converged" if converged else "outer_bound",
        nodes=nodes,
    )

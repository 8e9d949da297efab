"""Maximum-entropy distribution under the linearized axioms.

Entropy maximization is the assumption that collapses every entailed
interval to a single value; comparing the resulting point values with
the intervals entailed without it recovers which probabilities the
axioms actually pinned down and which the assumption invented.

Solver: every axiom row is a homogeneous inequality g . x <= 0 (point
axioms contribute a matched pair, which is merged into one equality),
so the Lagrangian dual of  max { -sum x ln x : Ex = 0, Gx <= 0,
sum x = 1, x >= 0 }  is  min logsumexp(-E^T mu - G^T nu)  over free mu
and nu >= 0, with the primal recovered as a softmax.  One projected
Newton loop (Bertsekas 1982) minimizes it.  Each iteration holds at 0
every nu_j within eps of 0 that the gradient pushes below 0, and gives
those a gradient step; it takes a Newton step in the other multipliers,
on the dual Hessian shifted by the gradient's length (Li, Fukushima, Qi
& Yamashita 2004), since rows that combine to a constant make that
Hessian singular; it clips nu at 0; and it halves the step until the
Armijo test on the dual value holds or, once the value moves only at
rounding level, until the residual falls.  Iteration stops when the
primal KKT residual (feasibility plus complementary slackness;
stationarity and normalization are exact by construction) drops below
the tolerance, or at the iteration cap, or when no step helps.

Worlds forced to probability zero make the entropy gradient unbounded,
so they are detected exactly beforehand, by one LP over the homogeneous
axiom cone, and eliminated.  That LP runs over the world classes of
:mod:`cpibounds.entailment`: a class is in the support exactly when its
worlds are.  The dual then keeps one column per support world.

numpy is imported by the functions that use it, so only a solve loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .entailment import VACUOUS, _class_program, entail_conditional
from .errors import InfeasibleError
from .kb import KnowledgeBase, ProbabilityInterval, kb_sides
from .sentences import Sentence, WorldSpace, conjunction, extension, mask_indices
from .simplex import solve_lp

if TYPE_CHECKING:  # the annotations only
    import numpy as np

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 1_000

PINNED = "pinned_by_k"
PARTIAL = "partially_determined"
UNDETERMINED = "fully_underdetermined"


@dataclass(frozen=True)
class MaxEntSolution:
    distribution: tuple[float, ...]
    entropy: float
    kkt_residual: float
    iterations: int
    converged: bool

    def probability(self, indices) -> float:
        return float(sum(self.distribution[i] for i in indices))


@dataclass(frozen=True)
class PrecisionEntry:
    target: Sentence
    given: Sentence
    interval: ProbabilityInterval
    status: str
    maxent_value: float | None
    classification: str


@dataclass(frozen=True)
class PrecisionReport:
    entries: tuple[PrecisionEntry, ...]
    solution: MaxEntSolution


def _support(rows, n: int) -> list[int]:
    """Columns that some admissible distribution gives positive probability.

    One LP over the homogeneous axiom cone {y >= 0 : rows} (Freund,
    Roundy & Todd 1985): maximize sum s_i subject to s_i <= y_i and
    s_i <= 1, columns y at 0..n-1 and s at n..2n-1.  The cone holds a
    point with y_i >= 1 on every such column and forces y_i = 0 on the
    others, so every optimum has s_i = 1 exactly on the support.
    """
    lp_rows = list(rows)
    for i in range(n):
        lp_rows.append(({n + i: 1, i: -1}, "<=", 0))
        lp_rows.append(({n + i: 1}, "<=", 1))
    lp = solve_lp(2 * n, lp_rows, {n + i: 1 for i in range(n)}, "max")
    free = [i for i in range(n) if lp.x[n + i] == 1]
    if not free:
        raise InfeasibleError("axiom system admits no distribution")
    return free


def _constraint_rows(rows, columns):
    """Rows in <=0 form over the free columns, as (equalities, inequalities).

    Each row still unpaired is merged with the first row that is its
    exact negation into one equality; the other rows stay inequalities.
    """
    import numpy as np
    col_of = {w: j for j, w in enumerate(columns)}
    vectors = []
    for coeffs, rel, _ in rows:
        key = tuple(sorted(
            (col_of[i], -c if rel == ">=" else c) for i, c in coeffs.items() if i in col_of
        ))
        if key:
            vectors.append(key)
    first_negation = {}
    for idx, key in enumerate(vectors):
        first_negation.setdefault(tuple((j, -c) for j, c in key), idx)
    used, eqs, ineqs = set(), [], []
    for idx, key in enumerate(vectors):
        if idx not in used:
            partner = first_negation.get(key, idx)
            paired = partner != idx and partner not in used
            used.update((idx, partner))
            (eqs if paired else ineqs).append(key)
    arrays = (np.zeros((len(eqs), len(columns))), np.zeros((len(ineqs), len(columns))))
    for array, keys in zip(arrays, (eqs, ineqs)):
        for r, key in enumerate(keys):
            for j, c in key:
                array[r, j] = float(c)
    return arrays


def _primal(scores: np.ndarray) -> np.ndarray:
    import numpy as np
    shift = scores.max()
    w = np.exp(scores - shift)
    return w / w.sum()


def _dual_value(scores: np.ndarray) -> float:
    import numpy as np
    shift = scores.max()
    return float(shift + math.log(np.exp(scores - shift).sum()))


def _residual(eq_vals, in_vals, nu) -> float:
    import numpy as np
    parts = [0.0]
    if eq_vals.size:
        parts.append(float(np.abs(eq_vals).max()))
    if in_vals.size:
        parts.append(float(np.maximum(in_vals, 0.0).max()))
        parts.append(float(np.abs(nu * in_vals).max()))
    return max(parts)


def solve_maxent(
    kb: KnowledgeBase,
    ws: WorldSpace,
    tol: float = DEFAULT_TOL,
) -> MaxEntSolution:
    """Maximize -sum x ln x over the axiom-feasible distributions.

    Raises InfeasibleError on an infeasible axiom set.  Non-convergence
    within the iteration cap is reported in the result, not raised.
    """
    import numpy as np
    n = len(ws)
    classes, rows, _ = _class_program(kb_sides(kb, ws), n, ())
    free_classes = _support(rows, len(classes))
    # the dual keeps one column per support world, a copy of its class's
    # column; C order keeps the summation order of numpy's products
    class_of = {i: j for j, c in enumerate(free_classes) for i in mask_indices(classes[c])}
    free = sorted(class_of)
    take = [class_of[i] for i in free]
    eq, ineq = _constraint_rows(rows, free_classes)
    a = np.ascontiguousarray(np.vstack([eq, ineq])[:, take])  # theta = (mu, nu)
    m = len(eq)

    def state(theta):
        scores = -(a.T @ theta)
        x = _primal(scores)
        grad = -(a @ x)
        return _dual_value(scores), x, grad, _residual(-grad[:m], -grad[m:], theta[m:])

    theta = np.zeros(len(a))
    value, x, grad, residual = state(theta)
    iterations = 0
    while residual >= tol and iterations < DEFAULT_MAX_ITER:
        # Bertsekas' epsilon-active set: a nu_j within eps of 0 that the
        # gradient pushes below 0 is held and takes a gradient step, with
        # eps the length of theta - P(theta - grad)
        nu, grad_nu = theta[m:], grad[m:]
        moved = np.concatenate([grad[:m], np.minimum(nu, grad_nu)])
        eps = min(1e-3, float(np.linalg.norm(moved)))
        held = np.concatenate([np.zeros(m, bool), (nu <= eps) & (grad_nu > 0)])
        newton = ~held
        # the rest take a Newton step on the Hessian A diag(x) A^T - g g^T,
        # shifted by |g| (Li, Fukushima, Qi & Yamashita) past flat directions
        g = grad[newton]
        direction = grad.copy()
        shift = float(np.linalg.norm(g))
        if shift > 0:
            sub = a[newton]
            hess = (sub * x) @ sub.T - np.outer(g, g) + shift * np.eye(len(g))
            direction[newton] = np.linalg.solve(hess, g)
        step = 1.0
        for _ in range(60):
            cand = theta - step * direction
            cand[m:] = np.maximum(cand[m:], 0.0)
            found = state(cand)
            cand_value, cand_residual = found[0], found[3]
            decrease = step * (g @ direction[newton])
            decrease += grad[held] @ (theta[held] - cand[held])
            if cand_value <= value - 1e-4 * decrease:
                break
            # at rounding level the value cannot rank steps; the residual can
            flat = abs(cand_value - value) <= 1e-14 * max(1.0, abs(value))
            if flat and cand_residual < residual:
                break
            step *= 0.5
        else:
            break  # no step helps: stop unconverged
        theta = cand
        value, x, grad, residual = found
        iterations += 1

    distribution = [0.0] * n
    for j, i in enumerate(free):
        distribution[i] = float(x[j])
    # 0.0 - s, not -s: on a one-world support s is 0.0, and -s would print as -0.000000
    entropy = 0.0 - float((x[x > 0] * np.log(x[x > 0])).sum())
    return MaxEntSolution(
        tuple(distribution), entropy, residual, iterations, residual < tol
    )


def classify(interval: ProbabilityInterval) -> str:
    if interval.is_point:
        return PINNED
    if interval.is_vacuous:
        return UNDETERMINED
    return PARTIAL


def precision_report(kb: KnowledgeBase, ws: WorldSpace, results=None) -> PrecisionReport:
    """Entailed interval versus maximum-entropy point value, per KB query.

    Classifies each query by what the axioms alone determine: a
    degenerate interval was pinned by the axioms, a vacuous one left
    fully underdetermined, anything else partially determined.  The
    maxent value always lies inside the entailed interval (up to solver
    tolerance); conditioning on an event of maxent probability zero
    yields no point value.  ``results`` may pass the queries'
    plain-entailment QueryResults, in order, when already computed.
    """
    solution = solve_maxent(kb, ws)
    if results is None:
        results = [entail_conditional(kb, ws, t, g) for t, g in kb.queries]
    entries = []
    for (target, given), result in zip(kb.queries, results):
        numer = solution.probability(extension(conjunction(target, given), ws))
        denom = solution.probability(extension(given, ws))
        value = numer / denom if denom > 0 else None
        if result.status == VACUOUS:
            value = None
        entries.append(
            PrecisionEntry(
                target=target,
                given=given,
                interval=result.interval,
                status=result.status,
                maxent_value=value,
                classification=classify(result.interval),
            )
        )
    return PrecisionReport(tuple(entries), solution)

"""Local interval-propagation rules and the soundness/completeness harness.

Propagation keeps a table of probability intervals for an explicit set
of tracked sentences, all starting at [0, 1] except where unconditional
axioms pin them, and repeatedly applies local tightening rules until a
fixpoint.  The sound rules follow from the probability axioms alone:

* negation:        P(!s) = 1 - P(s)
* conjunction:     max(0, P(a)+P(b)-1) <= P(a & b) <= min(P(a), P(b))
* disjunction:     max(P(a), P(b)) <= P(a | b) <= min(1, P(a)+P(b))
* chaining q <= P(A|B) <= r through P(B) in [lb, ub]:
                   q*lb <= P(A) <= r*ub + (1 - lb)

The fuzzy min/max rule (P(a & b) = min, P(a | b) = max) is also provided
but is unsound as an inference rule and off by default; enabling it is
how the harness reproduces inference driven into inconsistency.

Judging compares each propagated interval against the LP-entailed one:
a superset is sound, a subset complete, equality both, anything else
unsound.  Intervals only ever shrink, arithmetic is exact, and the
fixpoint is independent of rule application order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .entailment import entail_conditional
from .errors import CoverageMismatchError, InconsistencySignal
from .kb import CpiAxiom, KnowledgeBase, ProbabilityInterval
from .sentences import TRUE, And, Not, Or, Sentence, WorldSpace

ZERO = Fraction(0)
ONE = Fraction(1)

SOUND_AND_COMPLETE = "sound_and_complete"
SOUND_INCOMPLETE = "sound_incomplete"
UNSOUND = "unsound"

DEFAULT_SWEEP_CAP = 1000


@dataclass(frozen=True)
class RuleSet:
    negation: bool = True
    frechet_conjunction: bool = True
    frechet_disjunction: bool = True
    conditional_chain: bool = True
    fuzzy_minmax: bool = False

    def __post_init__(self):
        if self.fuzzy_minmax and (self.frechet_conjunction or self.frechet_disjunction):
            raise ValueError(
                "fuzzy_minmax and frechet rules for the same connectives "
                "cannot both be enabled"
            )

    @classmethod
    def sound(cls) -> "RuleSet":
        return cls()

    @classmethod
    def fuzzy(cls) -> "RuleSet":
        return cls(frechet_conjunction=False, frechet_disjunction=False, fuzzy_minmax=True)


class BoundsTable:
    """Interval per tracked sentence; updates only ever intersect."""

    def __init__(self, tracked):
        self.tracked = tuple(dict.fromkeys(tracked))
        self._intervals = {s: ProbabilityInterval.vacuous() for s in self.tracked}

    def __contains__(self, s: Sentence) -> bool:
        return s in self._intervals

    def interval(self, s: Sentence) -> ProbabilityInterval:
        return self._intervals[s]

    def items(self):
        return [(s, self._intervals[s]) for s in self.tracked]

    def tighten(self, s: Sentence, candidate: ProbabilityInterval, rule: str, involved) -> bool:
        current = self._intervals[s]
        merged = current.intersect(candidate)
        if merged is None:
            raise InconsistencySignal(
                rule, involved, f"{current} against {candidate} for {s}"
            )
        if merged == current:
            return False
        self._intervals[s] = merged
        return True


def apply_rule_negation(table: BoundsTable, s: Sentence) -> bool:
    """Tighten the tracked complement of s from s's interval."""
    partner = s.child if isinstance(s, Not) else Not(s)
    if partner not in table:
        return False
    iv = table.interval(s)
    candidate = ProbabilityInterval(ONE - iv.upper, ONE - iv.lower)
    return table.tighten(partner, candidate, "negation", (s, partner))


def _frechet_conjunction(table: BoundsTable, a: Sentence, b: Sentence) -> bool:
    conj = And((a, b))
    if conj not in table:
        return False
    ia, ib = table.interval(a), table.interval(b)
    candidate = ProbabilityInterval(
        max(ZERO, ia.lower + ib.lower - ONE), min(ia.upper, ib.upper)
    )
    return table.tighten(conj, candidate, "frechet_conjunction", (a, b, conj))


def _frechet_disjunction(table: BoundsTable, a: Sentence, b: Sentence) -> bool:
    disj = Or((a, b))
    if disj not in table:
        return False
    ia, ib = table.interval(a), table.interval(b)
    candidate = ProbabilityInterval(
        max(ia.lower, ib.lower), min(ONE, ia.upper + ib.upper)
    )
    return table.tighten(disj, candidate, "frechet_disjunction", (a, b, disj))


def apply_rule_fuzzy(table: BoundsTable, a: Sentence, b: Sentence) -> bool:
    """The min/max point rule; requires point-valued inputs and is unsound."""
    ia, ib = table.interval(a), table.interval(b)
    if not (ia.is_point and ib.is_point):
        raise ValueError("fuzzy rule requires point-valued inputs")
    changed = False
    conj = And((a, b))
    if conj in table:
        changed |= table.tighten(
            conj,
            ProbabilityInterval.point(min(ia.lower, ib.lower)),
            "fuzzy_minmax",
            (a, b, conj),
        )
    disj = Or((a, b))
    if disj in table:
        changed |= table.tighten(
            disj,
            ProbabilityInterval.point(max(ia.lower, ib.lower)),
            "fuzzy_minmax",
            (a, b, disj),
        )
    return changed


def apply_rule_conditional_chain(table: BoundsTable, axiom: CpiAxiom) -> bool:
    """Forward-chain q <= P(A|B) <= r through the antecedent's interval.

    P(A) >= P(A & B) >= q * P(B) gives the lower side;
    P(A) <= P(A & B) + P(!B) <= r * P(B) + 1 - P(B) gives the upper.
    """
    if axiom.antecedent == TRUE:
        ante = ProbabilityInterval.point(ONE)
    elif axiom.antecedent in table:
        ante = table.interval(axiom.antecedent)
    else:
        return False
    if axiom.consequent not in table:
        return False
    q, r = axiom.bounds.lower, axiom.bounds.upper
    candidate = ProbabilityInterval(
        q * ante.lower, min(ONE, r * ante.upper + ONE - ante.lower)
    )
    return table.tighten(
        axiom.consequent, candidate, "conditional_chain",
        (axiom.antecedent, axiom.consequent),
    )


def propagate_fixpoint(
    kb: KnowledgeBase,
    rules: RuleSet,
    tracked,
    order_seed: int | None = None,
) -> tuple[BoundsTable, int]:
    """Run the enabled rules to a fixpoint; returns (table, sweeps used).

    The tracked set must include every axiom sentence.  Arithmetic is
    exact, so the fixpoint test is exact equality; ``order_seed``
    shuffles the application order (the fixpoint itself is order
    independent).  An InconsistencySignal identifies the application
    that emptied an interval.
    """
    table = BoundsTable(tracked)
    for ax in kb.axioms:
        if ax.consequent not in table or (
            ax.antecedent != TRUE and ax.antecedent not in table
        ):
            raise ValueError(f"tracked set must include the sentences of {ax}")
        if ax.antecedent == TRUE:
            table.tighten(ax.consequent, ax.bounds, "axiom", (ax.consequent,))

    def fuzzy_on_points(table, a, b) -> bool:
        ia, ib = table.interval(a), table.interval(b)
        return ia.is_point and ib.is_point and apply_rule_fuzzy(table, a, b)

    apps = []  # (rule, *operands), run as rule(table, *operands)
    if rules.negation:
        apps += [(apply_rule_negation, s) for s in table.tracked]
    pairs = [(a, b) for a in table.tracked for b in table.tracked if a != b]
    for enabled, rule in (
        (rules.frechet_conjunction, _frechet_conjunction),
        (rules.frechet_disjunction, _frechet_disjunction),
        (rules.fuzzy_minmax, fuzzy_on_points),
    ):
        if enabled:
            apps += [(rule, a, b) for a, b in pairs]
    if rules.conditional_chain:
        apps += [(apply_rule_conditional_chain, ax) for ax in kb.axioms]
    if order_seed is not None:
        random.Random(order_seed).shuffle(apps)

    sweeps = 0
    while sweeps < DEFAULT_SWEEP_CAP:
        sweeps += 1
        changed = False
        for rule, *operands in apps:
            changed |= rule(table, *operands)
        if not changed:
            break
    return table, sweeps


def entailed_intervals(kb: KnowledgeBase, ws: WorldSpace, sentences) -> dict:
    """LP-entailed interval per sentence, the judging reference."""
    return {s: entail_conditional(kb, ws, s).interval for s in sentences}


@dataclass(frozen=True)
class JudgeReport:
    verdicts: dict
    aggregate: str


def judge_soundness_completeness(propagated, entailed) -> JudgeReport:
    """Compare inferred intervals against entailed ones, per sentence.

    Inferred superset of entailed: sound (incomplete unless equal);
    inferred subset: complete; equality: sound and complete; an inferred
    interval that fails to contain the entailed one is unsound.  The
    aggregate verdict is the worst per-sentence verdict.
    """
    inferred = dict(propagated.items())
    entailed = dict(entailed)
    if set(inferred) != set(entailed):
        raise CoverageMismatchError(
            "propagated and entailed tables cover different sentences"
        )
    rank = {SOUND_AND_COMPLETE: 0, SOUND_INCOMPLETE: 1, UNSOUND: 2}
    verdicts = {}
    worst = SOUND_AND_COMPLETE
    for s, inf in inferred.items():
        ent = entailed[s]
        if inf.contains_interval(ent):
            verdict = SOUND_AND_COMPLETE if inf == ent else SOUND_INCOMPLETE
        else:
            verdict = UNSOUND
        verdicts[s] = verdict
        if rank[verdict] > rank[worst]:
            worst = verdict
    return JudgeReport(verdicts, worst)

"""Interval propagation rules, fixpoint behavior, and the judge."""

import random
from fractions import Fraction

import pytest

from cpibounds import (
    And,
    Atom,
    CoverageMismatchError,
    InconsistencySignal,
    KnowledgeBase,
    Not,
    Or,
    ProbabilityInterval,
    TRUE,
    build_world_space,
    parse_kb,
    parse_sentence,
)
from cpibounds.kb import CpiAxiom
from cpibounds.propagation import (
    SOUND_AND_COMPLETE,
    SOUND_INCOMPLETE,
    UNSOUND,
    BoundsTable,
    RuleSet,
    _frechet_conjunction,
    _frechet_disjunction,
    apply_rule_conditional_chain,
    apply_rule_fuzzy,
    apply_rule_negation,
    entailed_intervals,
    judge_soundness_completeness,
    propagate_fixpoint,
)
from generators import random_feasible_kb

F = Fraction
A, B = Atom("A"), Atom("B")
CONJ = And((A, B))
DISJ = Or((A, B))


def table_with(entries):
    table = BoundsTable(list(entries))
    for s, iv in entries.items():
        if iv is not None:
            table.tighten(s, iv, "seed", (s,))
    return table


class TestRuleSet:
    def test_fuzzy_excludes_frechet(self):
        with pytest.raises(ValueError):
            RuleSet(fuzzy_minmax=True)
        RuleSet.fuzzy()  # valid combination


class TestNegationRule:
    def test_point(self):
        t = table_with({A: ProbabilityInterval.point(F(3, 10)), Not(A): None})
        assert apply_rule_negation(t, A)
        assert t.interval(Not(A)) == ProbabilityInterval.point(F(7, 10))

    def test_vacuous_is_preserved(self):
        t = table_with({A: None, Not(A): None})
        assert not apply_rule_negation(t, A)
        assert t.interval(Not(A)).is_vacuous

    def test_interval_endpoints(self):
        t = table_with(
            {A: ProbabilityInterval(F(1, 5), F(3, 5)), Not(A): None}
        )
        apply_rule_negation(t, A)
        assert t.interval(Not(A)) == ProbabilityInterval(F(2, 5), F(4, 5))

    def test_applies_from_negation_to_inner(self):
        t = table_with({Not(A): ProbabilityInterval.point(F(1, 4)), A: None})
        assert apply_rule_negation(t, Not(A))
        assert t.interval(A) == ProbabilityInterval.point(F(3, 4))


class TestFrechetRule:
    def test_quoted_pair_bounds(self):
        t = table_with(
            {
                A: ProbabilityInterval.point(F(3, 10)),
                B: ProbabilityInterval.point(F(1, 2)),
                CONJ: None,
                DISJ: None,
            }
        )
        _frechet_conjunction(t, A, B)
        _frechet_disjunction(t, A, B)
        assert t.interval(CONJ) == ProbabilityInterval(F(0), F(3, 10))
        assert t.interval(DISJ) == ProbabilityInterval(F(1, 2), F(4, 5))

    def test_certain_conjunct(self):
        t = table_with(
            {
                A: ProbabilityInterval.point(F(1)),
                B: ProbabilityInterval.point(F(2, 5)),
                CONJ: None,
            }
        )
        _frechet_conjunction(t, A, B)
        assert t.interval(CONJ) == ProbabilityInterval.point(F(2, 5))

    def test_additive_lower_side(self):
        t = table_with(
            {
                A: ProbabilityInterval.point(F(7, 10)),
                B: ProbabilityInterval.point(F(7, 10)),
                CONJ: None,
            }
        )
        _frechet_conjunction(t, A, B)
        assert t.interval(CONJ) == ProbabilityInterval(F(2, 5), F(7, 10))


class TestFuzzyRule:
    def test_minmax_points(self):
        t = table_with(
            {
                A: ProbabilityInterval.point(F(3, 10)),
                B: ProbabilityInterval.point(F(1, 2)),
                CONJ: None,
                DISJ: None,
            }
        )
        apply_rule_fuzzy(t, A, B)
        assert t.interval(CONJ) == ProbabilityInterval.point(F(3, 10))
        assert t.interval(DISJ) == ProbabilityInterval.point(F(1, 2))

    def test_zero_conjunct(self):
        t = table_with(
            {
                A: ProbabilityInterval.point(F(0)),
                B: ProbabilityInterval.point(F(2, 5)),
                CONJ: None,
            }
        )
        apply_rule_fuzzy(t, A, B)
        assert t.interval(CONJ) == ProbabilityInterval.point(F(0))

    def test_requires_point_inputs(self):
        t = table_with(
            {A: ProbabilityInterval(F(1, 5), F(2, 5)), B: None, CONJ: None}
        )
        with pytest.raises(ValueError):
            apply_rule_fuzzy(t, A, B)

    def test_conflict_with_prior_exclusivity(self):
        t = table_with(
            {
                A: ProbabilityInterval.point(F(1, 2)),
                B: ProbabilityInterval.point(F(1, 2)),
                CONJ: ProbabilityInterval.point(F(0)),
            }
        )
        with pytest.raises(InconsistencySignal) as err:
            apply_rule_fuzzy(t, A, B)
        assert err.value.rule == "fuzzy_minmax"


class TestConditionalChainRule:
    def test_certain_antecedent(self):
        t = table_with({B: ProbabilityInterval.point(F(1)), A: None})
        axiom = CpiAxiom(A, B, ProbabilityInterval.point(F(7, 10)))
        apply_rule_conditional_chain(t, axiom)
        assert t.interval(A) == ProbabilityInterval.point(F(7, 10))

    def test_vacuous_antecedent_is_uninformative(self):
        t = table_with({B: None, A: None})
        axiom = CpiAxiom(A, B, ProbabilityInterval.point(F(9, 10)))
        apply_rule_conditional_chain(t, axiom)
        assert t.interval(A).is_vacuous

    def test_half_antecedent(self):
        t = table_with({B: ProbabilityInterval.point(F(1, 2)), A: None})
        axiom = CpiAxiom(A, B, ProbabilityInterval(F(7, 10), F(1)))
        apply_rule_conditional_chain(t, axiom)
        assert t.interval(A) == ProbabilityInterval(F(7, 20), F(1))


class TestFixpoint:
    def test_no_axioms_everything_vacuous(self):
        kb = KnowledgeBase(atoms=("A", "B"))
        table, _ = propagate_fixpoint(kb, RuleSet.sound(), [A, B, CONJ])
        assert all(iv.is_vacuous for _, iv in table.items())

    def test_negation_pair_after_one_sweep(self):
        kb = parse_kb("atom A\nP(A) = 0.3")
        table, sweeps = propagate_fixpoint(kb, RuleSet.sound(), [A, Not(A)])
        assert table.interval(Not(A)) == ProbabilityInterval.point(F(7, 10))
        assert sweeps <= 2

    def test_frechet_closure(self):
        kb = parse_kb("atom A B\nP(A) = 0.3\nP(B) = 0.5")
        table, _ = propagate_fixpoint(kb, RuleSet.sound(), [A, B, CONJ, DISJ])
        assert table.interval(CONJ) == ProbabilityInterval(F(0), F(3, 10))
        assert table.interval(DISJ) == ProbabilityInterval(F(1, 2), F(4, 5))

    def test_tracked_must_cover_axioms(self):
        kb = parse_kb("atom A B\nP(A | B) = 0.5")
        with pytest.raises(ValueError):
            propagate_fixpoint(kb, RuleSet.sound(), [A])

    def test_fixpoint_is_order_independent(self):
        rng = random.Random(91)
        for _ in range(10):
            kb, _ = random_feasible_kb(rng, max_atoms=3, max_axioms=4)
            tracked = []
            for ax in kb.axioms:
                tracked.append(ax.consequent)
                if ax.antecedent != TRUE:
                    tracked.append(ax.antecedent)
            tracked.append(And((tracked[0], Atom(kb.atoms[0]))))
            try:
                base, _ = propagate_fixpoint(kb, RuleSet.sound(), tracked)
            except InconsistencySignal:
                continue
            for seed in (1, 2, 3):
                again, _ = propagate_fixpoint(
                    kb, RuleSet.sound(), tracked, order_seed=seed
                )
                assert dict(again.items()) == dict(base.items())

    def test_intervals_only_shrink(self):
        kb = parse_kb("atom A B\nP(A) = 0.4\n0.5 <= P(B | A)")
        tracked = [A, B, CONJ]
        table, _ = propagate_fixpoint(kb, RuleSet.sound(), tracked)
        for s, iv in table.items():
            assert ProbabilityInterval.vacuous().contains_interval(iv)


class TestJudge:
    def test_superset_is_sound_incomplete(self):
        rep = judge_soundness_completeness(
            {A: ProbabilityInterval.vacuous()},
            {A: ProbabilityInterval(F(3, 10), F(1, 2))},
        )
        assert rep.verdicts[A] == SOUND_INCOMPLETE
        assert rep.aggregate == SOUND_INCOMPLETE

    def test_identical_is_sound_and_complete(self):
        iv = ProbabilityInterval(F(3, 10), F(1, 2))
        rep = judge_soundness_completeness({A: iv}, {A: iv})
        assert rep.aggregate == SOUND_AND_COMPLETE

    def test_fuzzy_on_exclusive_pair_is_unsound(self):
        kb = parse_kb(
            "atom A B\nbackground !(A & B)\nP(A) = 0.5\nP(B) = 0.5"
        )
        ws = build_world_space(kb.atoms, kb.background)
        table, _ = propagate_fixpoint(kb, RuleSet.fuzzy(), [A, B, CONJ])
        rep = judge_soundness_completeness(
            table, entailed_intervals(kb, ws, [A, B, CONJ])
        )
        assert rep.verdicts[CONJ] == UNSOUND
        assert rep.aggregate == UNSOUND

    def test_coverage_mismatch(self):
        with pytest.raises(CoverageMismatchError):
            judge_soundness_completeness(
                {A: ProbabilityInterval.vacuous()},
                {B: ProbabilityInterval.vacuous()},
            )


class TestSoundnessProperty:
    def test_sound_rules_always_superset_of_entailment(self):
        rng = random.Random(97)
        done = 0
        while done < 50:
            kb, ws = random_feasible_kb(rng, max_atoms=3, max_axioms=4)
            tracked = []
            for ax in kb.axioms:
                tracked.append(ax.consequent)
                if ax.antecedent != TRUE:
                    tracked.append(ax.antecedent)
            tracked = list(dict.fromkeys(tracked))
            if len(tracked) >= 2:
                tracked.append(And((tracked[0], tracked[1])))
                tracked.append(Or((tracked[0], tracked[1])))
            tracked = list(dict.fromkeys(tracked))
            try:
                table, _ = propagate_fixpoint(kb, RuleSet.sound(), tracked)
            except InconsistencySignal:
                # propagation can only signal if entailment is infeasible,
                # and these theories are feasible by construction
                raise
            rep = judge_soundness_completeness(
                table, entailed_intervals(kb, ws, tracked)
            )
            assert rep.aggregate in (SOUND_AND_COMPLETE, SOUND_INCOMPLETE)
            done += 1

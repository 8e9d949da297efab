"""Knowledge-base DSL, linearization, and inconsistency diagnosis."""

import random
from fractions import Fraction

import pytest

from cpibounds import (
    Atom,
    CondIndependence,
    CpiAxiom,
    InvalidBoundError,
    KbParseError,
    KnowledgeBase,
    NegativeCorrelation,
    NotInfeasibleError,
    PositiveCorrelation,
    ProbabilityInterval,
    TRUE,
    UnknownAtomError,
    build_world_space,
    diagnose_inconsistency,
    extension,
    linearize,
    parse_kb,
    parse_sentence,
)
from cpibounds.entailment import feasible_subset
from cpibounds.kb import p_term_text
from cpibounds.simplex import solve_lp
from generators import ATOM_NAMES, random_sentence

A, B = Atom("A"), Atom("B")
HALF = Fraction(1, 2)


class TestProbabilityInterval:
    def test_validation(self):
        with pytest.raises(InvalidBoundError):
            ProbabilityInterval(Fraction(6, 10), Fraction(4, 10))
        with pytest.raises(InvalidBoundError):
            ProbabilityInterval(Fraction(-1, 10), HALF)
        with pytest.raises(InvalidBoundError):
            ProbabilityInterval(HALF, Fraction(12, 10))

    def test_vacuous_and_point(self):
        assert ProbabilityInterval.vacuous().is_vacuous
        assert ProbabilityInterval.point(HALF).is_point

    def test_intersect(self):
        a = ProbabilityInterval(Fraction(1, 10), HALF)
        b = ProbabilityInterval(Fraction(3, 10), Fraction(9, 10))
        assert a.intersect(b) == ProbabilityInterval(Fraction(3, 10), HALF)
        c = ProbabilityInterval(Fraction(6, 10), Fraction(7, 10))
        assert a.intersect(c) is None


class TestParseKb:
    def test_lower_bound_form(self):
        kb = parse_kb("atom A\n0.3 <= P(A)")
        (ax,) = kb.axioms
        assert ax == CpiAxiom(A, TRUE, ProbabilityInterval(Fraction(3, 10), 1))

    def test_point_conditional(self):
        kb = parse_kb("atom A B\nP(A | B) = 0.7")
        (ax,) = kb.axioms
        assert ax.antecedent == B
        assert ax.bounds == ProbabilityInterval.point(Fraction(7, 10))

    def test_two_sided_and_upper_forms(self):
        kb = parse_kb("atom A\n0.2 <= P(A) <= 0.8\nP(A) <= 0.9")
        assert kb.axioms[0].bounds == ProbabilityInterval(Fraction(1, 5), Fraction(4, 5))
        assert kb.axioms[1].bounds == ProbabilityInterval(0, Fraction(9, 10))

    def test_out_of_range_bound(self):
        with pytest.raises(InvalidBoundError):
            parse_kb("atom A\nP(A) >= 1.2")
        with pytest.raises(InvalidBoundError):
            parse_kb("atom A\n1.2 <= P(A)")

    def test_crossed_bounds(self):
        with pytest.raises(InvalidBoundError):
            parse_kb("atom A\n0.8 <= P(A) <= 0.2")

    def test_fractions_and_comments(self):
        kb = parse_kb("atom A  # declares\n3/10 <= P(A)  # lower\n\n")
        assert kb.axioms[0].bounds.lower == Fraction(3, 10)

    def test_undeclared_atom(self):
        with pytest.raises(UnknownAtomError):
            parse_kb("atom A\nP(B) = 0.5")

    def test_parse_error_carries_line(self):
        with pytest.raises(KbParseError) as err:
            parse_kb("atom A\nwobble P(A)")
        assert err.value.line == 2

    def test_duplicate_axioms_are_retained(self):
        kb = parse_kb("atom A\nP(A) = 0.5\nP(A) = 0.5")
        assert len(kb.axioms) == 2

    def test_assumptions(self):
        kb = parse_kb(
            "atom A B G\n"
            "assume indep(A, B)\n"
            "assume indep(A, B | G)\n"
            "assume poscorr(A, B)\n"
            "assume negcorr(A, B)\n"
        )
        assert kb.assumptions[0] == CondIndependence(A, B, TRUE)
        assert kb.assumptions[1] == CondIndependence(A, B, Atom("G"))
        assert kb.assumptions[2] == PositiveCorrelation(A, B)
        assert kb.assumptions[3] == NegativeCorrelation(A, B)

    def test_queries_split_on_first_top_level_pipe(self):
        kb = parse_kb(
            "atom A B C\nquery P(A & B)\nquery P((A | B))\nquery P(A | B | C)"
        )
        assert kb.queries[0] == (parse_sentence("A & B"), TRUE)
        assert kb.queries[1] == (parse_sentence("A | B"), TRUE)
        # conditioning is the first unnested pipe; the rest is the antecedent
        assert kb.queries[2] == (A, parse_sentence("B | C"))

    def test_frame_and_mass(self):
        kb = parse_kb("frame a b\nmass m1 {a}: 0.6, {a, b}: 0.4")
        assert kb.frame == ("a", "b")
        assert kb.masses["m1"] == [
            (frozenset({"a"}), Fraction(3, 5)),
            (frozenset({"a", "b"}), Fraction(2, 5)),
        ]

    def test_equal_kbs_with_masses_hash_equal(self):
        text = "atom A\nP(A) >= 0.5\nframe a b\nmass m1 {a}: 0.6, {a, b}: 0.4"
        first, second = parse_kb(text), parse_kb(text)
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_p_term_text_round_trips(self):
        rng = random.Random(11)
        header = "atom " + " ".join(ATOM_NAMES) + "\n"
        for _ in range(400):
            target = random_sentence(rng, ATOM_NAMES, depth=3)
            given = (
                random_sentence(rng, ATOM_NAMES) if rng.random() < 0.5 else TRUE
            )
            text = p_term_text(target, given)
            kb = parse_kb(f"{header}query {text}\n")
            assert kb.queries == ((target, given),), text

    def test_mass_requires_frame(self):
        with pytest.raises(KbParseError):
            parse_kb("mass m1 {a}: 1")

    def test_empty_subset_mass_rejected(self):
        with pytest.raises(KbParseError):
            parse_kb("frame a\nmass m1 {}: 1")

    @pytest.mark.parametrize("entries", ["{a}: 0.5, {a}: 0.5", "{a, b}: 0.5, {b, a}: 0.5"])
    def test_repeated_mass_subset_rejected(self, entries):
        # subsets compare as sets, so a reordered one is the same subset
        with pytest.raises(KbParseError) as info:
            parse_kb(f"frame a b\nmass m1 {entries}")
        assert info.value.line == 2 and "named twice" in str(info.value)


class TestLinearize:
    ws = build_world_space(["A", "B"])

    def test_point_conditional_emits_both_sides(self):
        axiom = CpiAxiom(A, B, ProbabilityInterval.point(Fraction(7, 10)))
        rows = linearize(axiom, self.ws)
        assert [r.rel for r in rows] == [">=", "<="]
        # both encode p(A & B) - 0.7 p(B) vs 0: coefficient 3/10 on A&B
        # worlds, -7/10 on B-only worlds
        both = extension(parse_sentence("A & B"), self.ws)
        ante = extension(B, self.ws)
        for row in rows:
            for i in both:
                assert row.coeffs[i] == Fraction(3, 10)
            for i in ante - both:
                assert row.coeffs[i] == Fraction(-7, 10)

    def test_vacuous_interval_emits_nothing(self):
        axiom = CpiAxiom(A, TRUE, ProbabilityInterval.vacuous())
        assert linearize(axiom, self.ws) == []

    def test_one_sided_unconditional(self):
        ws = build_world_space(["A"])
        axiom = CpiAxiom(A, TRUE, ProbabilityInterval(Fraction(3, 10), 1))
        (row,) = linearize(axiom, ws)
        assert row.rel == ">="
        assert row.coeffs == {1: Fraction(7, 10), 0: Fraction(-3, 10)}

    def test_point_axiom_pins_the_ratio(self):
        # distributions satisfying the linearization have p(A&B) = t * p(B)
        axiom = CpiAxiom(A, B, ProbabilityInterval.point(HALF))
        rows = [(r.coeffs, r.rel, r.rhs) for r in linearize(axiom, self.ws)]
        rows.append(({i: Fraction(1) for i in range(4)}, "=", Fraction(1)))
        both = extension(parse_sentence("A & B"), self.ws)
        ante = extension(B, self.ws)
        for seed in range(20):
            rng = random.Random(seed)
            objective = {i: Fraction(rng.randint(-5, 5)) for i in range(4)}
            res = solve_lp(4, rows, objective, "min")
            assert res.status == "optimal"
            pb = sum(res.x[i] for i in ante)
            pab = sum(res.x[i] for i in both)
            assert pab == HALF * pb

    def test_sampled_vertices_respect_conditional_bounds(self):
        # random axioms; every vertex of the linearized polytope satisfies
        # q <= p(A|B) <= r whenever p(B) > 0 (exact arithmetic)
        from generators import random_kb

        rng = random.Random(3)
        checked = 0
        for _ in range(60):
            kb = random_kb(rng, max_axioms=2)
            ws = build_world_space(kb.atoms)
            n = len(ws)
            rows = []
            for ax in kb.axioms:
                rows.extend((r.coeffs, r.rel, r.rhs) for r in linearize(ax, ws))
            rows.append(({i: Fraction(1) for i in range(n)}, "=", Fraction(1)))
            objective = {i: Fraction(rng.randint(-9, 9)) for i in range(n)}
            res = solve_lp(n, rows, objective, rng.choice(["min", "max"]))
            if res.status != "optimal":
                continue
            for ax in kb.axioms:
                ante = extension(ax.antecedent, ws)
                both = extension(
                    parse_sentence(f"({ax.consequent}) & ({ax.antecedent})"), ws
                )
                pb = sum(res.x[i] for i in ante)
                if pb > 0:
                    ratio = sum(res.x[i] for i in both) / pb
                    assert ax.bounds.lower <= ratio <= ax.bounds.upper
                    checked += 1
        assert checked > 30


class TestDiagnose:
    def test_minimal_pair(self):
        kb = parse_kb("atom A\n0.6 <= P(A)\nP(A) <= 0.4")
        ws = build_world_space(kb.atoms)
        assert diagnose_inconsistency(kb, ws) == [0, 1]

    def test_irrelevant_axiom_dropped(self):
        kb = parse_kb("atom A B\n0.6 <= P(A)\nP(A) <= 0.4\n0.1 <= P(B)")
        ws = build_world_space(kb.atoms)
        assert diagnose_inconsistency(kb, ws) == [0, 1]

    def test_feasible_system_rejected(self):
        kb = parse_kb("atom A\nP(A) = 0.5")
        ws = build_world_space(kb.atoms)
        with pytest.raises(NotInfeasibleError):
            diagnose_inconsistency(kb, ws)

    def test_result_is_deletion_minimal(self):
        rng = random.Random(9)
        from generators import random_kb

        found = 0
        for _ in range(80):
            kb = random_kb(rng, max_axioms=5)
            ws = build_world_space(kb.atoms)
            full = list(range(len(kb.axioms)))
            if feasible_subset(kb, ws, full):
                continue
            subset = diagnose_inconsistency(kb, ws)
            assert not feasible_subset(kb, ws, subset)
            for drop in subset:
                rest = [i for i in subset if i != drop]
                assert feasible_subset(kb, ws, rest)
            found += 1
        assert found >= 5

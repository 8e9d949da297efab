"""Bilinear assumptions: encoding, McCormick envelopes, branch-and-bound."""

import dataclasses
import random
from fractions import Fraction

import pytest

from cpibounds import (
    Atom,
    CondIndependence,
    InfeasibleError,
    NegativeCorrelation,
    PositiveCorrelation,
    ProbabilityInterval,
    TRUE,
    build_world_space,
    conjunction,
    entail_conditional,
    parse_kb,
    parse_sentence,
)
from cpibounds import assumptions, entailment
from cpibounds.assumptions import (
    encode_assumption,
    entail_augmented,
    mccormick_envelopes,
    simplest_between,
)
from cpibounds.simplex import counting
from generators import one_class_per_world, random_feasible_kb, random_sentence
from judge import GridSearchConfig, grid_bounds

F = Fraction
A, B, G = Atom("A"), Atom("B"), Atom("G")
WS2 = build_world_space(["A", "B"])


def cut_range(cuts, u, v) -> ProbabilityInterval:
    """The z interval the McCormick cuts admit at the point (u, v)."""
    planes = {rel: [c.u_coeff * u + c.v_coeff * v + c.constant for c in cuts if c.rel == rel]
              for rel in (">=", "<=")}
    return ProbabilityInterval(max(planes[">="]), min(planes["<="]))


class TestEncoding:
    def test_unconditional_independence_degenerates(self):
        # p(A & B) = p(A) * p(B)
        assert encode_assumption(CondIndependence(A, B, TRUE)) == (
            (conjunction(A, B),), "=", (A, B)
        )

    def test_conditional_independence_clears_denominator(self):
        # p(A & B & G) * p(G) = p(A & G) * p(B & G)
        assert encode_assumption(CondIndependence(A, B, G)) == (
            (conjunction(A, B, G), G), "=", (conjunction(A, G), conjunction(B, G))
        )

    def test_correlation_signs(self):
        # p(A & B) <= p(A) * p(B), and >= for a positive correlation
        assert encode_assumption(NegativeCorrelation(A, B)) == (
            (conjunction(A, B),), "<=", (A, B)
        )
        assert encode_assumption(PositiveCorrelation(A, B)) == (
            (conjunction(A, B),), ">=", (A, B)
        )

    def test_aggregates_are_interned(self):
        kb = parse_kb("atom A B\nassume indep(A, B)\nassume negcorr(A, B)")
        ws = build_world_space(kb.atoms)
        problem = assumptions._AugmentedProblem(
            assumptions.kb_sides(kb, ws), kb.assumptions, ws, A, TRUE
        )
        assert problem.aggregates == [conjunction(A, B), A, B]  # shared
        assert problem.products == [(1, 2)]
        assert problem.relations == [((0,), "=", (1, 2)), ((0,), "<=", (1, 2))]


class TestMcCormick:
    def test_unit_box_envelopes(self):
        unit = ProbabilityInterval.vacuous()
        cuts = mccormick_envelopes(unit, unit)
        rendered = {
            (c.rel, c.u_coeff, c.v_coeff, c.constant) for c in cuts
        }
        assert rendered == {
            (">=", F(0), F(0), F(0)),   # z >= 0
            (">=", F(1), F(1), F(-1)),  # z >= u + v - 1
            ("<=", F(0), F(1), F(0)),   # z <= u
            ("<=", F(1), F(0), F(0)),   # z <= v
        }

    def test_degenerate_box_linearizes_exactly(self):
        u = ProbabilityInterval.point(F(1, 2))
        v = ProbabilityInterval(F(1, 10), F(9, 10))
        cuts = mccormick_envelopes(u, v)
        for v_val in (F(1, 10), F(1, 3), F(9, 10)):
            rng = cut_range(cuts, F(1, 2), v_val)
            assert rng.lower == rng.upper == F(1, 2) * v_val

    def test_relaxation_gap_at_box_center(self):
        box = ProbabilityInterval(F(1, 5), F(4, 5))
        rng = cut_range(
            mccormick_envelopes(box, box), F(1, 2), F(1, 2)
        )
        assert rng == ProbabilityInterval(F(4, 25), F(17, 50))

    def test_envelopes_contain_the_true_product(self):
        rnd = random.Random(7)
        for _ in range(200):
            vals = sorted(F(rnd.randint(0, 12), 12) for _ in range(2))
            u_box = ProbabilityInterval(*vals)
            vals = sorted(F(rnd.randint(0, 12), 12) for _ in range(2))
            v_box = ProbabilityInterval(*vals)
            cuts = mccormick_envelopes(u_box, v_box)
            for _ in range(5):
                u = u_box.lower + (u_box.upper - u_box.lower) * F(rnd.randint(0, 8), 8)
                v = v_box.lower + (v_box.upper - v_box.lower) * F(rnd.randint(0, 8), 8)
                admitted = cut_range(cuts, u, v)
                assert admitted.contains(u * v)


def test_simplest_between():
    assert simplest_between(F(1, 3), F(2, 3)) == F(1, 2)
    assert simplest_between(F(3, 10), F(3, 10)) == F(3, 10)
    assert simplest_between(F(305, 1000), F(306, 1000)) == F(11, 36)
    value = simplest_between(F(1234567, 10000000), F(1234568, 10000000))
    assert F(1234567, 10000000) <= value <= F(1234568, 10000000)
    assert value.denominator < 100000


class TestAugmentedEntailment:
    def test_no_assumptions_delegates_exactly(self):
        rng = random.Random(41)
        for _ in range(10):
            kb, ws = random_feasible_kb(rng, max_atoms=3, max_axioms=3)
            target = random_sentence(rng, kb.atoms)
            aug = entail_augmented(kb, ws, target)
            plain = entail_conditional(kb, ws, target)
            assert aug == plain and aug.nodes == 0

    def test_independence_pins_the_product(self):
        kb = parse_kb("atom A B\nP(A) = 0.5\nP(B) = 0.4\nassume indep(A, B)")
        res = entail_augmented(kb, WS2, parse_sentence("A & B"))
        assert res.interval == ProbabilityInterval.point(F(1, 5))
        assert res.convergence == "converged" and res.nodes <= 100

    def test_negative_correlation_caps_at_product(self):
        kb = parse_kb("atom A B\nP(A) = 0.5\nP(B) = 0.4\nassume negcorr(A, B)")
        res = entail_augmented(kb, WS2, parse_sentence("A & B"))
        assert res.interval == ProbabilityInterval(F(0), F(1, 5))
        assert res.convergence == "converged"

    def test_positive_correlation_floors_at_product(self):
        kb = parse_kb("atom A B\nP(A) = 0.6\nP(B) = 0.5\nassume poscorr(A, B)")
        res = entail_augmented(kb, WS2, parse_sentence("A & B"))
        assert res.interval == ProbabilityInterval(F(3, 10), F(1, 2))

    def test_inconsistent_assumption_detected(self):
        # independence forces p(A & B) = 0.2, the axiom forbids it
        kb = parse_kb(
            "atom A B\nP(A) = 0.5\nP(B) = 0.4\nP(A & B) = 0.4\nassume indep(A, B)"
        )
        with pytest.raises(InfeasibleError):
            entail_augmented(kb, WS2, Atom("A"))

    def test_branching_converges_on_irrational_optimum(self):
        # p(A | B) = 0.8 with A, B independent: the conjunction maximum is
        # (1 - sqrt(0.2))^2, irrational, so real branching must happen
        kb = parse_kb("atom A B\nP((A | B)) = 0.8\nassume indep(A, B)")
        res = entail_augmented(
            kb, WS2, parse_sentence("A & B"), tolerance=F(1, 10**4), node_cap=500
        )
        interval = res.interval
        assert res.convergence == "converged"
        true_max = 0.3055728090000842
        assert interval.lower <= F(0)
        assert abs(float(interval.upper) - true_max) < 1e-4
        assert res.nodes > 4
        assert res.nodes < 100

    def test_outer_bounds_contain_grid_search(self):
        cfg = GridSearchConfig(step=F(1, 50), slack=F(1, 100))
        cases = [
            "atom A B\nP(A) = 0.5\nP(B) = 0.4\nassume indep(A, B)",
            "atom A B\nP(A) = 0.5\nP(B) = 0.4\nassume negcorr(A, B)",
            "atom A B\n0.3 <= P(A) <= 0.6\n0.4 <= P(B) <= 0.7\nassume indep(A, B)",
            "atom A B\nP((A | B)) = 0.8\nassume poscorr(A, B)",
        ]
        for text in cases:
            kb = parse_kb(text)
            target = parse_sentence("A & B")
            outer = entail_augmented(
                kb, WS2, target, tolerance=F(1, 10**6), node_cap=50
            ).interval
            grid = grid_bounds(kb, WS2, target, cfg=cfg)
            assert grid is not None
            # grid points satisfy the constraints only within the slack, so
            # compare against the outer interval padded by it
            assert outer.lower - cfg.slack <= grid.lower
            assert grid.upper <= outer.upper + cfg.slack

    def test_augmented_interval_inside_unaugmented(self):
        rng = random.Random(59)
        checked = 0
        while checked < 12:
            kb, ws = random_feasible_kb(rng, max_atoms=3, max_axioms=2)
            atoms = [Atom(a) for a in kb.atoms]
            assumption = rng.choice(
                [
                    CondIndependence(atoms[0], atoms[1], TRUE),
                    NegativeCorrelation(atoms[0], atoms[1]),
                    PositiveCorrelation(atoms[0], atoms[1]),
                ]
            )
            grown = type(kb)(
                atoms=kb.atoms, axioms=kb.axioms, assumptions=(assumption,)
            )
            target = random_sentence(rng, kb.atoms)
            plain = entail_conditional(kb, ws, target).interval
            try:
                aug = entail_augmented(
                    grown, ws, target, tolerance=F(1, 10**6), node_cap=60
                )
            except InfeasibleError:
                continue
            assert plain.contains_interval(aug.interval)
            checked += 1

    def test_vacuous_antecedent_with_assumptions(self):
        kb = parse_kb("atom A B\nP(B) = 0\nassume indep(A, B)")
        res = entail_augmented(kb, WS2, Atom("A"), Atom("B"))
        assert res.status == "vacuous_by_zero_antecedent"

    def test_bounds_tighten_monotonically_with_node_budget(self):
        kb = parse_kb("atom A B\nP((A | B)) = 0.8\nassume indep(A, B)")
        target = parse_sentence("A & B")
        previous = None
        for cap in (1, 4, 16, 64):
            interval = entail_augmented(
                kb, WS2, target, tolerance=F(0), node_cap=cap
            ).interval
            if previous is not None:
                assert previous.contains_interval(interval)
            previous = interval

    def test_conditional_query_with_assumptions(self):
        kb = parse_kb("atom A B\nP(A) = 0.5\nP(B) = 0.4\nassume indep(A, B)")
        res = entail_augmented(kb, WS2, Atom("A"), Atom("B"))
        assert res.interval == ProbabilityInterval.point(F(1, 2))

    def test_vacuity_test_runs_on_the_query_program(self, monkeypatch):
        built = []

        class Counted(assumptions._AugmentedProblem):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(assumptions, "_AugmentedProblem", Counted)
        kb = parse_kb("atom A B\nP(A) = 0.5\nP(B) = 0.4\nassume indep(A, B)")
        res = entail_augmented(kb, WS2, Atom("A"), Atom("B"))
        assert res.interval == ProbabilityInterval.point(F(1, 2))
        assert len(built) == 1

    def test_one_class_program_per_query(self, monkeypatch):
        # the root boxes, the node LPs and the vacuity test share one program
        original, built = entailment._class_program, []

        def counted(*args):
            built.append(args)
            return original(*args)

        for module in (entailment, assumptions):
            monkeypatch.setattr(module, "_class_program", counted)
        kb = parse_kb("atom A B\nP((A | B)) = 0.8\nP(A) <= 0.6\nassume indep(A, B)")
        entail_augmented(kb, WS2, parse_sentence("A & B"), node_cap=20)
        assert len(built) == 1

    @pytest.mark.parametrize("setting", [{"node_cap": 0}, {"tolerance": F(-1, 10**6)}])
    def test_invalid_search_setting_rejected(self, setting):
        kb = parse_kb("atom A B\nP(A) = 0.5\nP(B) = 0.4\nassume indep(A, B)")
        with pytest.raises(ValueError):
            entail_augmented(kb, WS2, parse_sentence("A & B"), **setting)


def test_class_columns_match_per_world_columns(monkeypatch):
    # node LPs over world classes against the same search with one class
    # per world: Bland's rule takes the same pivots to the same vertices,
    # so answers, flags, node counts and pivots agree
    rng = random.Random(97)
    kinds = (
        lambda a, b, g: CondIndependence(a, b, TRUE),
        CondIndependence,
        lambda a, b, g: PositiveCorrelation(a, b),
        lambda a, b, g: NegativeCorrelation(a, b),
    )
    merged = set()
    outcomes = set()
    for trial in range(120):
        kb, ws = random_feasible_kb(rng, max_atoms=3, max_axioms=3)
        a, b, g = (random_sentence(rng, kb.atoms, 1) for _ in range(3))
        kb = dataclasses.replace(kb, assumptions=(kinds[trial % 4](a, b, g),))
        target = random_sentence(rng, kb.atoms)
        given = random_sentence(rng, kb.atoms, 1) if trial // 4 % 2 else TRUE
        answers = []
        for per_world in (False, True):
            with monkeypatch.context() as patch:
                if per_world:
                    patch.setattr(
                        assumptions,
                        "_class_program",
                        one_class_per_world(assumptions._class_program),
                    )
                with counting() as stats:
                    try:
                        answer = entail_augmented(
                            kb, ws, target, given, tolerance=F(1, 10**4), node_cap=6
                        )
                    except InfeasibleError as exc:
                        answer = str(exc)
            answers.append((answer, stats.pivots))
        assert answers[0] == answers[1]
        answer = answers[0][0]
        outcomes.add("infeasible" if isinstance(answer, str) else (answer.status, answer.convergence))
        problem = assumptions._AugmentedProblem(
            assumptions.kb_sides(kb, ws), kb.assumptions, ws, target, given
        )
        merged.add(problem.t_col < len(ws))
    assert outcomes >= {
        "infeasible",
        ("determined", "converged"),
        ("determined", "outer_bound"),
        ("vacuous_by_zero_antecedent", "converged"),
    }
    assert merged == {False, True}

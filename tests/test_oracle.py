"""The brute-force oracles agree with (and never contradict) the LP path."""

import random
from fractions import Fraction

import pytest

from cpibounds import (
    TRUE,
    Atom,
    CpiAxiom,
    KnowledgeBase,
    LinearConstraint,
    ProbabilityInterval,
    build_world_space,
    conjunction,
    entail_conditional,
    extension,
    linearize,
    parse_kb,
    parse_sentence,
)
import judge
from generators import random_feasible_kb, random_sentence
from judge import GridSearchConfig, OracleSizeError, grid_bounds, vertex_bounds
from test_lp_counts import BASIC

F = Fraction


class TestGridConfig:
    def test_step_must_divide_one(self):
        with pytest.raises(ValueError):
            GridSearchConfig(step=F(3, 7))
        GridSearchConfig(step=F(1, 40))

    def test_world_limit(self):
        kb = KnowledgeBase(atoms=("A", "B", "C"))
        ws = build_world_space(kb.atoms)
        with pytest.raises(OracleSizeError):
            grid_bounds(kb, ws, Atom("A"))


class TestGridBounds:
    def test_point_axiom(self):
        kb = parse_kb("atom A\nP(A) = 0.5")
        ws = build_world_space(kb.atoms)
        cfg = GridSearchConfig(step=F(1, 100), slack=F(0))
        assert grid_bounds(kb, ws, Atom("A"), cfg=cfg) == (
            __import__("cpibounds").ProbabilityInterval(F(1, 2), F(1, 2))
        )

    def test_no_axioms_full_range(self):
        kb = KnowledgeBase(atoms=("A",))
        ws = build_world_space(kb.atoms)
        interval = grid_bounds(kb, ws, Atom("A"), cfg=GridSearchConfig(step=F(1, 20)))
        assert interval.lower == 0 and interval.upper == 1

    def test_infeasible_returns_none(self):
        kb = parse_kb("atom A\n0.9 <= P(A)\nP(A) <= 0.1")
        ws = build_world_space(kb.atoms)
        cfg = GridSearchConfig(step=F(1, 50), slack=F(0))
        assert grid_bounds(kb, ws, Atom("A"), cfg=cfg) is None


class TestVertexBounds:
    def test_negation_point(self):
        kb = parse_kb("atom A\nP(A) = 0.3")
        ws = build_world_space(kb.atoms)
        interval = vertex_bounds(kb, ws, parse_sentence("!A"))
        assert interval.lower == interval.upper == F(7, 10)

    def test_unconstrained_conjunction(self):
        kb = KnowledgeBase(atoms=("A", "B"))
        ws = build_world_space(kb.atoms)
        interval = vertex_bounds(kb, ws, parse_sentence("A & B"))
        assert interval.lower == 0 and interval.upper == 1

    def test_disjunction_lower_bound_is_tight(self):
        kb = parse_kb(
            "atom A B C\n"
            "background A | B | C\n"
            "background !(A & B)\nbackground !(A & C)\nbackground !(B & C)\n"
            "0.3 <= P((A | B))\n0.4 <= P((A | C))\n0.5 <= P((B | C))\n"
        )
        ws = build_world_space(kb.atoms, kb.background)
        interval = vertex_bounds(kb, ws, parse_sentence("A | B"))
        assert interval.lower == F(3, 10)

    def test_size_limit(self):
        kb = KnowledgeBase(atoms=("A", "B", "C", "D", "E"))
        ws = build_world_space(kb.atoms)
        with pytest.raises(OracleSizeError):
            vertex_bounds(kb, ws, Atom("A"))

    def test_antecedent_pinned_to_zero_has_no_vertex(self):
        kb = parse_kb("atom A B\nP(A) = 0")
        ws = build_world_space(kb.atoms)
        with pytest.raises(OracleSizeError, match="no feasible vertex found"):
            vertex_bounds(kb, ws, Atom("B"), Atom("A"))


@pytest.mark.parametrize(
    "bounds",
    [
        vertex_bounds,
        lambda kb, ws, target: grid_bounds(
            kb, ws, target, cfg=GridSearchConfig(step=F(1, 50))
        ),
    ],
    ids=["vertex", "grid"],
)
def test_oracles_answer_modus_ponens(bounds):
    # P(A) = 0.7 and P(A -> B) = 0.8 entail P(B) in [1/2, 4/5]
    kb = parse_kb("atom A B\nP(A) = 0.7\nP(A -> B) = 0.8")
    ws = build_world_space(kb.atoms)
    assert bounds(kb, ws, Atom("B")) == ProbabilityInterval(F(1, 2), F(4, 5))


class TestOracleAgreement:
    @pytest.mark.slow
    def test_vertex_equals_lp_exactly(self):
        rng = random.Random(101)
        for _ in range(40):
            kb, ws = random_feasible_kb(rng, max_atoms=3, max_axioms=3)
            target = random_sentence(rng, kb.atoms)
            lp = entail_conditional(kb, ws, target).interval
            assert vertex_bounds(kb, ws, target) == lp

    def test_vertex_equals_lp_on_conditional_queries(self):
        rng = random.Random(107)
        for _ in range(40):
            kb, ws = random_feasible_kb(rng, max_atoms=2, max_axioms=3)
            target = random_sentence(rng, kb.atoms)
            given = random_sentence(rng, kb.atoms, 1)
            lp = entail_conditional(kb, ws, target, given)
            if lp.status != "determined":
                continue
            assert vertex_bounds(kb, ws, target, given) == lp.interval

    def test_vertex_equals_lp_on_three_atoms(self):
        # 8 worlds, and a conditional query with a compound antecedent
        kb = parse_kb(BASIC)
        ws = build_world_space(kb.atoms)
        assert len(kb.queries) == 3
        for target, given in kb.queries:
            lp = entail_conditional(kb, ws, target, given).interval
            assert vertex_bounds(kb, ws, target, given) == lp

    def test_vertex_handles_equality_rows(self, monkeypatch):
        # linearize writes a point axiom as a >= and a <= row; here it is one
        # = row, which the oracle offers as an optional active constraint and
        # must still enforce at every candidate vertex
        def rows_with_equalities(kb, ws):
            rows = []
            for ax in kb.axioms:
                own = linearize(ax, ws)
                if ax.bounds.lower == ax.bounds.upper:
                    own = [LinearConstraint(own[0].coeffs, "=")]
                rows.extend(own)
            return rows

        monkeypatch.setattr(judge, "kb_rows", rows_with_equalities)
        rng = random.Random(109)
        atoms = ("A", "B", "C")
        ws = build_world_space(atoms)
        for _ in range(15):
            weights = [rng.randint(1, 5) for _ in range(len(ws))]
            planted = [F(w, sum(weights)) for w in weights]

            def p(s):
                return sum((planted[i] for i in extension(s, ws)), start=F(0))

            axioms = []
            for _ in range(rng.randint(1, 2)):
                consequent = random_sentence(rng, atoms)
                antecedent = random_sentence(rng, atoms, 1) if rng.random() < 0.4 else TRUE
                if p(antecedent) == 0:  # unsatisfiable antecedent
                    antecedent = TRUE
                value = p(conjunction(consequent, antecedent)) / p(antecedent)
                axioms.append(
                    CpiAxiom(consequent, antecedent, ProbabilityInterval.point(value))
                )
            kb = KnowledgeBase(atoms=atoms, axioms=tuple(axioms))
            assert any(r.rel == "=" for r in judge.kb_rows(kb, ws))
            target = random_sentence(rng, atoms)
            lp = entail_conditional(kb, ws, target).interval
            assert vertex_bounds(kb, ws, target) == lp

    def test_grid_within_lp_expanded_by_step(self):
        # grid points are genuinely feasible (slack 0), so the grid interval
        # sits inside the LP interval; with slack it can poke out by at most
        # the slack-scaled constraint sensitivity, so check containment of
        # the slack-free grid only
        rng = random.Random(103)
        step = F(1, 40)
        cfg = GridSearchConfig(step=step, slack=F(0))
        for _ in range(20):
            kb, ws = random_feasible_kb(rng, max_atoms=2, max_axioms=3)
            target = random_sentence(rng, kb.atoms)
            lp = entail_conditional(kb, ws, target).interval
            grid = grid_bounds(kb, ws, target, cfg=cfg)
            if grid is None:
                continue
            assert lp.lower <= grid.lower and grid.upper <= lp.upper

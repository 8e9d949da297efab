"""LP entailment: exactness, duality, and agreement with the oracles."""

import random
import sys
from fractions import Fraction

import pytest

from cpibounds import (
    And,
    Atom,
    CpiAxiom,
    InfeasibleError,
    KnowledgeBase,
    Not,
    ProbabilityInterval,
    TRUE,
    build_world_space,
    entail_conditional,
    feasible,
    parse_kb,
    parse_sentence,
)
from cpibounds.cli import main
from cpibounds.entailment import (
    DETERMINED,
    VACUOUS,
    _class_program,
    _feasibility,
    homogenized_rows,
    probability_bounds,
)
from cpibounds.errors import EmptyWorldSpaceError
from cpibounds.kb import kb_rows, kb_sides
from cpibounds.sentences import conjunction, extension, extension_mask
from cpibounds.simplex import solve_lp
from generators import random_feasible_kb, random_kb, random_sentence
from judge import vertex_bounds

F = Fraction
A, B = Atom("A"), Atom("B")
WS2 = build_world_space(["A", "B"])


class TestFeasible:
    def test_point_axiom(self):
        kb = parse_kb("atom A\nP(A) = 0.5")
        assert feasible(kb, build_world_space(kb.atoms))

    def test_overdetermined(self):
        kb = parse_kb("atom A\n0.6 <= P(A)\nP(A) <= 0.4")
        assert not feasible(kb, build_world_space(kb.atoms))

    def test_empty_kb(self):
        kb = KnowledgeBase(atoms=("A",))
        assert feasible(kb, build_world_space(kb.atoms))


class TestUnconditional:
    def test_ignorance_is_vacuous_interval(self):
        kb = KnowledgeBase(atoms=("A", "B"))
        res = entail_conditional(kb, WS2, A)
        assert res.interval == ProbabilityInterval.vacuous()

    def test_negation_complement(self):
        kb = parse_kb("atom A\nP(A) = 0.3")
        res = entail_conditional(kb, build_world_space(kb.atoms), Not(A))
        assert res.interval == ProbabilityInterval.point(F(7, 10))

    def test_material_implication_bounds(self):
        # p(A)=0.7 and p(A->B)=0.8 entail p(B) in [0.5, 0.8]; frozen from
        # vertex enumeration of the 4-world polytope
        kb = parse_kb("atom A B\nP(A) = 0.7\nP(A -> B) = 0.8")
        res = entail_conditional(kb, WS2, B)
        assert res.interval == ProbabilityInterval(F(1, 2), F(4, 5))
        assert res.interval == vertex_bounds(kb, WS2, B)
        assert res.lower_attained and res.upper_attained

    def test_infeasible_raises(self):
        kb = parse_kb("atom A\n0.6 <= P(A)\nP(A) <= 0.4")
        with pytest.raises(InfeasibleError):
            entail_conditional(kb, build_world_space(kb.atoms), A)


class TestConditional:
    def test_self_conditional_is_certain(self):
        kb = KnowledgeBase(atoms=("A", "B"))
        res = entail_conditional(kb, WS2, A, A)
        assert res.interval == ProbabilityInterval.point(1)

    def test_zero_antecedent_is_vacuous(self):
        kb = parse_kb("atom A B\nP(B) = 0")
        res = entail_conditional(kb, WS2, A, B)
        assert res.status == VACUOUS
        assert res.interval == ProbabilityInterval.vacuous()
        assert not res.lower_attained and not res.upper_attained

    def test_unsatisfiable_antecedent_is_vacuous(self):
        kb = KnowledgeBase(atoms=("A", "B"))
        res = entail_conditional(kb, WS2, A, parse_sentence("B & !B"))
        assert res.status == VACUOUS

    def test_conditional_axiom_bounds_conjunction(self):
        # 0.7 <= p(A|B), p(B) = 0.5 entail p(A & B) in [0.35, 0.5]; frozen
        # from vertex enumeration
        kb = parse_kb("atom A B\n0.7 <= P(A | B)\nP(B) = 0.5")
        res = entail_conditional(kb, WS2, parse_sentence("A & B"))
        assert res.interval == ProbabilityInterval(F(7, 20), F(1, 2))
        assert res.interval == vertex_bounds(kb, WS2, parse_sentence("A & B"))

    def test_zero_allowed_but_not_forced_antecedent(self):
        # p(B) may be anything; the ratio is bounded over p(B) > 0 only
        kb = parse_kb("atom A B\nP(A | B) = 0.7")
        res = entail_conditional(kb, WS2, A, B)
        assert res.status == DETERMINED
        assert res.interval == ProbabilityInterval.point(F(7, 10))

    def test_matches_unconditional_on_true(self):
        rng = random.Random(17)
        for _ in range(25):
            kb, ws = random_feasible_kb(rng, max_atoms=3, max_axioms=3)
            target = random_sentence(rng, kb.atoms)
            a = entail_conditional(kb, ws, target, TRUE)
            b = entail_conditional(kb, ws, target)
            assert a.interval == b.interval and a.status == b.status


def answer_queries(kb, ws) -> dict:
    """One QueryResult per registered query, keyed by (target, given)."""
    return {
        (target, given): entail_conditional(kb, ws, target, given)
        for target, given in kb.queries
    }


class TestEntailAll:
    def test_empty_query_list(self):
        kb = KnowledgeBase(atoms=("A",))
        assert answer_queries(kb, build_world_space(kb.atoms)) == {}

    def test_point_query(self):
        kb = parse_kb("atom A\nP(A) = 0.3\nquery P(A)")
        results = answer_queries(kb, build_world_space(kb.atoms))
        assert results[(A, TRUE)].interval == ProbabilityInterval.point(F(3, 10))

    def test_frechet_pair(self):
        # frozen from vertex enumeration: conjunction [0, 0.3], disjunction
        # [0.5, 0.8] (tighter than the min/max-only bounds)
        kb = parse_kb(
            "atom A B\nP(A) = 0.3\nP(B) = 0.5\nquery P(A & B)\nquery P((A | B))"
        )
        results = answer_queries(kb, WS2)
        conj = results[(parse_sentence("A & B"), TRUE)]
        disj = results[(parse_sentence("A | B"), TRUE)]
        assert conj.interval == ProbabilityInterval(F(0), F(3, 10))
        assert disj.interval == ProbabilityInterval(F(1, 2), F(4, 5))


class TestProperties:
    def test_duality_with_negation(self):
        rng = random.Random(23)
        for _ in range(25):
            kb, ws = random_feasible_kb(rng, max_atoms=3, max_axioms=3)
            target = random_sentence(rng, kb.atoms)
            pos = entail_conditional(kb, ws, target).interval
            neg = entail_conditional(kb, ws, Not(target)).interval
            assert neg.lower == 1 - pos.upper
            assert neg.upper == 1 - pos.lower

    def test_monotonicity_under_added_axioms(self):
        rng = random.Random(31)
        trials = 0
        while trials < 25:
            kb, ws = random_feasible_kb(rng, max_atoms=3, max_axioms=3)
            extra = random_kb(rng, max_atoms=len(kb.atoms), max_axioms=1)
            grown = KnowledgeBase(
                atoms=kb.atoms, axioms=kb.axioms + extra.axioms
            )
            if not feasible(grown, ws):
                continue
            target = random_sentence(rng, kb.atoms)
            wide = entail_conditional(kb, ws, target).interval
            narrow = entail_conditional(grown, ws, target).interval
            assert wide.contains_interval(narrow)
            trials += 1

    def test_point_axioms_entail_intervals_in_general(self):
        # equalities in, non-degenerate interval out
        kb = parse_kb("atom A B\nP(A) = 0.7\nP(A -> B) = 0.8")
        res = entail_conditional(kb, WS2, B)
        assert not res.interval.is_point

    def test_bounds_always_ordered_and_within_unit(self):
        rng = random.Random(37)
        for _ in range(25):
            kb, ws = random_feasible_kb(rng, max_atoms=3, max_axioms=4)
            target = random_sentence(rng, kb.atoms)
            given = random_sentence(rng, kb.atoms, 1)
            res = entail_conditional(kb, ws, target, given)
            assert 0 <= res.interval.lower <= res.interval.upper <= 1


class TestMergedWorlds:
    """Worlds that no row tells apart share one column; nothing else moves."""

    def test_merged_program_runs_the_same_pivots(self):
        # the class LPs built from extension masks against the per-world
        # program built from kb_rows: same status, value and pivots, and one
        # column per distinct per-world coefficient vector and membership
        rng = random.Random(41)
        outcomes = set()
        finer = 0
        for trial in range(80):
            kb = random_kb(rng, max_atoms=4, max_axioms=5)
            given = random_sentence(rng, kb.atoms, 1) if trial % 3 else TRUE
            if trial % 10 == 0:
                given = And((given, Not(given)))  # an antecedent with no world
            elif trial % 10 == 5:
                # an antecedent the axioms force to probability zero
                zero = CpiAxiom(given, TRUE, ProbabilityInterval.point(0))
                kb = KnowledgeBase(atoms=kb.atoms, axioms=(*kb.axioms, zero))
            if trial % 4 == 1:
                # sides pinned to 0 and to 1, whose rows give two
                # memberships the same coefficient 0
                extra = (
                    CpiAxiom(random_sentence(rng, kb.atoms), TRUE, ProbabilityInterval.point(1)),
                    CpiAxiom(random_sentence(rng, kb.atoms), random_sentence(rng, kb.atoms, 1),
                             ProbabilityInterval(F(0), F(0))),
                )
                kb = KnowledgeBase(atoms=kb.atoms, axioms=(*kb.axioms, *extra))
            background = (random_sentence(rng, kb.atoms),) if trial % 4 >= 2 else ()
            try:
                ws = build_world_space(kb.atoms, background)
            except EmptyWorldSpaceError:
                ws = build_world_space(kb.atoms)
            n, rows, sides = len(ws), kb_rows(kb, ws), kb_sides(kb, ws)
            target = conjunction(random_sentence(rng, kb.atoms), given)
            target_ext, given_ext = extension(target, ws), extension(given, ws)
            full = homogenized_rows(rows, n, given_ext)
            objective = {i: 1 for i in target_ext}
            masks = extension_mask(target, ws), extension_mask(given, ws)
            pairs = [
                *zip(
                    probability_bounds(sides, n, *masks),
                    [solve_lp(n + 1, full, objective, sense) for sense in ("min", "max")],
                ),
                (
                    _feasibility(sides, n),
                    solve_lp(n + 1, homogenized_rows(rows, n, range(n)), {}, "min"),
                ),
            ]
            for merged, unmerged in pairs:
                assert (merged.status, merged.value, merged.pivots) == (
                    unmerged.status, unmerged.value, unmerged.pivots
                )
            keys = {
                (*(r.coeffs.get(j, 0) for r in rows), j in target_ext, j in given_ext)
                for j in range(n)
            }
            width = len(_class_program(sides, n, masks)[0])
            assert width == len(keys)
            members = {
                (*(m >> j & 1 for s in sides for m in (s.both, s.ante)),
                 j in target_ext, j in given_ext)
                for j in range(n)
            }
            finer += len(members) > width
            outcomes.add((pairs[2][0].status, pairs[0][0].status, len(ws.background) > 0))
        # infeasible axioms, a zero-mass antecedent and a determined query,
        # with and without a background; membership split finer than the rows
        assert outcomes >= {("infeasible", "infeasible", False), ("optimal", "infeasible", False),
                            ("optimal", "optimal", False), ("optimal", "optimal", True)}
        assert finer

    def test_entail_lp_widths(self, tmp_path, monkeypatch, capsys):
        widths = []

        def counted(num_vars, rows, objective, sense="min"):
            widths.append(num_vars)
            return solve_lp(num_vars, rows, objective, sense)

        for name, module in list(sys.modules.items()):
            if name.startswith("cpibounds.") and getattr(module, "solve_lp", None) is solve_lp:
                monkeypatch.setattr(module, "solve_lp", counted)
        path = tmp_path / "wide.kb"
        path.write_text(
            "atom A B C D E F G H\nP(A) = 3/10\n0.2 <= P(B | C)\n"
            "query P(A & B)\nquery P(A | D)\n"
        )
        assert main(["entail", str(path)]) == 0
        assert "P(A & B): [0, 0.3]" in capsys.readouterr().out
        # 256 worlds; the gate sees 6 classes (A by the 3 coefficients of
        # the B | C row), P(A & B) splits A & !C by B, and P(A | D) splits
        # every class by D; each LP adds the scale column
        assert widths == [7, 8, 8, 13, 13]

"""Maximum entropy under the axioms, and the precision report."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from cpibounds import (
    TRUE,
    Atom,
    CpiAxiom,
    InfeasibleError,
    KnowledgeBase,
    ProbabilityInterval,
    build_world_space,
    entail_conditional,
    extension,
    feasible,
    parse_kb,
    parse_sentence,
)
from cpibounds import maxent
from cpibounds.maxent import (
    PARTIAL,
    PINNED,
    UNDETERMINED,
    precision_report,
    solve_maxent,
)
from generators import one_class_per_world, random_feasible_kb, random_sentence

F = Fraction
WS2 = build_world_space(["A", "B"])


class TestSolveMaxent:
    def test_unconstrained_is_exactly_uniform(self):
        kb = KnowledgeBase(atoms=("A", "B"))
        sol = solve_maxent(kb, WS2)
        assert sol.distribution == (0.25, 0.25, 0.25, 0.25)
        assert math.isclose(sol.entropy, math.log(4), rel_tol=1e-12)
        assert sol.converged

    def test_single_constraint_pins_two_worlds(self):
        kb = parse_kb("atom A\nP(A) = 0.3")
        ws = build_world_space(kb.atoms)
        sol = solve_maxent(kb, ws, tol=1e-10)
        assert abs(sol.distribution[0] - 0.7) < 1e-9
        assert abs(sol.distribution[1] - 0.3) < 1e-9

    def test_block_uniformity(self):
        # p(A) = 0.3 over two atoms: uniform within the A block and the
        # complement block
        kb = parse_kb("atom A B\nP(A) = 0.3")
        sol = solve_maxent(kb, WS2, tol=1e-10)
        x = sol.distribution
        assert abs(x[2] - 0.15) < 1e-8 and abs(x[3] - 0.15) < 1e-8
        assert abs(x[0] - 0.35) < 1e-8 and abs(x[1] - 0.35) < 1e-8

    def test_infeasible_raises(self):
        kb = parse_kb("atom A\n0.6 <= P(A)\nP(A) <= 0.4")
        with pytest.raises(InfeasibleError):
            solve_maxent(kb, build_world_space(kb.atoms))

    def test_forced_zero_worlds_are_eliminated(self):
        kb = parse_kb("atom A B\nP(A) = 1")
        sol = solve_maxent(kb, WS2, tol=1e-10)
        assert sol.distribution[0] == 0.0 and sol.distribution[1] == 0.0
        assert abs(sol.distribution[2] - 0.5) < 1e-9

    def test_support_lp_matches_per_world_maxima(self):
        from cpibounds.entailment import probability_bounds
        from cpibounds.kb import kb_rows, kb_sides
        from cpibounds.maxent import _support

        rng = random.Random(83)
        pruned = 0
        for _ in range(25):
            kb, ws = random_feasible_kb(rng, max_atoms=3, max_axioms=4)
            rows, sides, n = kb_rows(kb, ws), kb_sides(kb, ws), len(ws)
            expected = [
                i for i in range(n)
                if probability_bounds(sides, n, 1 << i, ws.full_mask)[1].value > 0
            ]
            assert _support(rows, n) == expected
            pruned += len(expected) < n
        assert pruned  # some instance forces a world to zero

    def test_class_columns_match_per_world_columns(self, monkeypatch):
        # the support LP over world classes against one class per world:
        # the same support, and a dual that gives the same bits
        rng = random.Random(89)
        pinned = forced = merged = 0
        for trial in range(60):
            kb, ws = random_feasible_kb(rng, max_atoms=3, max_axioms=3)
            if trial % 2:
                # sides pinned to 1 and to 0, which force worlds to zero
                extra = (
                    CpiAxiom(random_sentence(rng, kb.atoms), TRUE, ProbabilityInterval.point(1)),
                    CpiAxiom(random_sentence(rng, kb.atoms), random_sentence(rng, kb.atoms, 1),
                             ProbabilityInterval.point(0)),
                )
                wider = dataclasses.replace(kb, axioms=(*kb.axioms, *extra))
                if feasible(wider, ws):
                    kb = wider
                    pinned += 1
            by_class = solve_maxent(kb, ws)
            with monkeypatch.context() as patch:
                patch.setattr(maxent, "_class_program", one_class_per_world(maxent._class_program))
                by_world = solve_maxent(kb, ws)
            assert by_class == by_world
            forced += 0.0 in by_class.distribution
            merged += len(maxent._class_program(maxent.kb_sides(kb, ws), len(ws), ())[0]) < len(ws)
        assert pinned >= 10 and forced and merged

    def test_feasibility_within_1e9(self):
        rng = random.Random(71)
        from cpibounds.kb import kb_rows

        for _ in range(15):
            kb, ws = random_feasible_kb(rng, max_atoms=3, max_axioms=3)
            sol = solve_maxent(kb, ws, tol=1e-10)
            assert sol.converged
            for row in kb_rows(kb, ws):
                lhs = sum(
                    float(c) * sol.distribution[i] for i, c in row.coeffs.items()
                )
                if row.rel == ">=":
                    assert lhs >= -1e-9
                else:
                    assert lhs <= 1e-9

    def test_entropy_dominates_feasible_vertex_mixtures(self):
        # feasible points sampled as random convex combinations of the
        # polytope's vertices (rejection sampling cannot hit equality-thin
        # sets); the maxent solution must beat them all
        rng = random.Random(73)
        kb = parse_kb("atom A B\nP(A) = 0.7\nP(A -> B) = 0.8")
        sol = solve_maxent(kb, WS2, tol=1e-10)

        from cpibounds.kb import kb_rows
        from cpibounds.simplex import solve_lp

        rows = [(r.coeffs, r.rel, r.rhs) for r in kb_rows(kb, WS2)]
        rows.append(({i: F(1) for i in range(4)}, "=", F(1)))
        vertices = set()
        for _ in range(40):
            objective = {i: F(rng.randint(-6, 6)) for i in range(4)}
            res = solve_lp(4, rows, objective, rng.choice(["min", "max"]))
            assert res.status == "optimal"
            vertices.add(tuple(res.x))
        vertices = [tuple(float(v) for v in vert) for vert in vertices]
        assert len(vertices) >= 2

        def entropy(x):
            return -sum(v * math.log(v) for v in x if v > 0)

        for _ in range(1000):
            weights = [rng.random() for _ in vertices]
            total = sum(weights)
            point = [
                sum(w / total * vert[i] for w, vert in zip(weights, vertices))
                for i in range(4)
            ]
            assert entropy(point) <= sol.entropy + 1e-9

    def test_point_inside_entailed_interval(self):
        rng = random.Random(79)
        for _ in range(15):
            kb, ws = random_feasible_kb(rng, max_atoms=3, max_axioms=3)
            sol = solve_maxent(kb, ws, tol=1e-10)
            target = random_sentence(rng, kb.atoms)
            interval = entail_conditional(kb, ws, target).interval
            value = sol.probability(extension(target, ws))
            assert float(interval.lower) - 1e-6 <= value <= float(interval.upper) + 1e-6


class TestPrecisionReport:
    def test_pinned_query(self):
        kb = parse_kb("atom A\nP(A) = 0.3\nquery P(A)")
        ws = build_world_space(kb.atoms)
        report = precision_report(kb, ws)
        (entry,) = report.entries
        assert entry.classification == PINNED
        assert abs(entry.maxent_value - 0.3) < 1e-8

    def test_underdetermined_query(self):
        kb = parse_kb("atom A B\nP(A) = 0.3\nquery P(B)")
        report = precision_report(kb, WS2)
        (entry,) = report.entries
        assert entry.classification == UNDETERMINED
        assert abs(entry.maxent_value - 0.5) < 1e-8

    def test_partially_determined_query(self):
        kb = parse_kb("atom A B\nP(A) = 0.7\nP(A -> B) = 0.8\nquery P(B)")
        report = precision_report(kb, WS2)
        (entry,) = report.entries
        assert entry.classification == PARTIAL
        assert entry.interval.lower == F(1, 2) and entry.interval.upper == F(4, 5)
        assert (
            float(entry.interval.lower)
            < entry.maxent_value
            < float(entry.interval.upper)
        )

    def test_conditional_on_zero_probability_event(self):
        kb = parse_kb("atom A B\nP(B) = 0\nquery P(A | B)")
        report = precision_report(kb, WS2)
        (entry,) = report.entries
        assert entry.maxent_value is None
        assert entry.classification == UNDETERMINED

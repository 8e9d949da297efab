"""Acceptance criteria, one test per criterion.

Each test prints a PASS line on success (visible with ``pytest -s`` or
``-rP``); a failed criterion shows up as an ordinary test failure.  Run
this module alone with::

    pytest tests/test_acceptance.py -v -s
"""

import json
import random
import time
from fractions import Fraction

import pytest

from cpibounds import (
    And,
    Atom,
    CpiAxiom,
    KnowledgeBase,
    Not,
    Or,
    ProbabilityInterval,
    TRUE,
    TotalConflictError,
    build_world_space,
    entail_conditional,
    extension,
    linearize,
    parse_kb,
    parse_sentence,
)
from cpibounds.assumptions import entail_augmented
from cpibounds.cli import main
from cpibounds.dempster import (
    Frame,
    MassFunction,
    NotRepresentable,
    dempster_combine,
    envelope_from_entailment,
    frame_mapping_from_kb,
    mass_from_bel,
)
from cpibounds.maxent import PARTIAL, PINNED, precision_report
from cpibounds.propagation import (
    SOUND_AND_COMPLETE,
    SOUND_INCOMPLETE,
    UNSOUND,
    RuleSet,
    entailed_intervals,
    judge_soundness_completeness,
    propagate_fixpoint,
)
from cpibounds.simplex import solve_lp
from generators import random_feasible_kb, random_sentence
from judge import GridSearchConfig, grid_bounds, vertex_bounds

F = Fraction

COUNTEREXAMPLE_KB = """\
atom A B C
background A | B | C
background !(A & B)
background !(A & C)
background !(B & C)
frame A B C
0.3 <= P((A | B))
0.4 <= P((A | C))
0.5 <= P((B | C))
"""


def report(n, text):
    print(f"ACCEPTANCE PASS [{n}]: {text}")


def test_criterion_1_belief_function_counterexample(tmp_path, capsys):
    start = time.monotonic()
    kb = parse_kb(COUNTEREXAMPLE_KB)
    ws = build_world_space(kb.atoms, kb.background)

    # certify the envelope's pairwise lower bounds with both oracles
    cfg = GridSearchConfig(step=F(1, 100), slack=F(0))
    for text, expected in (("A | B", F(3, 10)), ("A | C", F(2, 5)), ("B | C", F(1, 2))):
        target = parse_sentence(text)
        assert vertex_bounds(kb, ws, target).lower == expected
        assert grid_bounds(kb, ws, target, cfg=cfg).lower == expected

    envelope = envelope_from_entailment(kb, ws, frame_mapping_from_kb(kb))
    verdict = mass_from_bel(envelope)
    assert isinstance(verdict, NotRepresentable)
    assert verdict.mass == F(-1, 5)
    assert verdict.subset == envelope.frame.full_mask

    path = tmp_path / "counterexample.kb"
    path.write_text(COUNTEREXAMPLE_KB)
    code = main(["ds", "representable", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "NOT representable: m({A, B, C}) = -1/5" in out
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"counterexample envelope has Moebius mass -1/5 on the full frame ({elapsed:.2f}s < 1s)")


def test_criterion_2_sound_bounds_for_the_fuzzy_example():
    start = time.monotonic()
    kb = parse_kb("atom A B\nP(A) = 0.3\nP(B) = 0.5")
    ws = build_world_space(kb.atoms)
    conj = parse_sentence("A & B")
    disj = parse_sentence("A | B")

    entailed_conj = entail_conditional(kb, ws, conj).interval
    entailed_disj = entail_conditional(kb, ws, disj).interval
    assert entailed_conj == ProbabilityInterval(F(0), F(3, 10))
    assert entailed_disj == ProbabilityInterval(F(1, 2), F(4, 5))

    tracked = [Atom("A"), Atom("B"), conj, disj]
    table, _ = propagate_fixpoint(kb, RuleSet.sound(), tracked)
    assert table.interval(conj) == entailed_conj
    assert table.interval(disj) == entailed_disj
    rep = judge_soundness_completeness(table, entailed_intervals(kb, ws, tracked))
    assert rep.aggregate == SOUND_AND_COMPLETE

    # the quoted sound (min/max-only) intervals are supersets of both
    assert ProbabilityInterval(F(0), F(3, 10)).contains_interval(entailed_conj)
    assert ProbabilityInterval(F(1, 2), F(1)).contains_interval(entailed_disj)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"conjunction [0, 3/10] and disjunction [1/2, 4/5], propagation sound and complete ({elapsed:.2f}s < 1s)")


def test_criterion_3_linearization_fidelity():
    rng = random.Random(2025)
    atoms = ("A", "B", "C", "D")
    checked_axioms = 0
    checked_points = 0
    while checked_axioms < 500:
        n_atoms = rng.randint(2, 4)
        names = atoms[:n_atoms]
        ws = build_world_space(names)
        n = len(ws)
        consequent = random_sentence(rng, names)
        antecedent = random_sentence(rng, names, 1) if rng.random() < 0.5 else TRUE
        lo, hi = sorted((rng.randint(0, 20), rng.randint(0, 20)))
        axiom = CpiAxiom(
            consequent, antecedent, ProbabilityInterval(F(lo, 20), F(hi, 20))
        )
        rows = [(r.coeffs, r.rel, r.rhs) for r in linearize(axiom, ws)]
        rows.append(({i: F(1) for i in range(n)}, "=", F(1)))

        # sample feasible points: LP vertices under random objectives, plus
        # their midpoints (the feasible set is convex)
        points = []
        for _ in range(3):
            objective = {i: F(rng.randint(-9, 9)) for i in range(n)}
            res = solve_lp(n, rows, objective, rng.choice(["min", "max"]))
            if res.status == "optimal":
                points.append(res.x)
        if not points:
            continue
        for a, b in zip(points, points[1:]):
            points.append([(u + v) / 2 for u, v in zip(a, b)])

        ante_ext = extension(axiom.antecedent, ws)
        both_ext = extension(And((consequent, antecedent)) if antecedent != TRUE else consequent, ws)
        for x in points:
            pb = sum(x[i] for i in ante_ext)
            if pb > 0:
                ratio = sum(x[i] for i in both_ext) / pb
                assert axiom.bounds.lower <= ratio <= axiom.bounds.upper
                checked_points += 1
        checked_axioms += 1
    assert checked_points >= 500
    report(3, f"500 random axioms, {checked_points} sampled distributions, zero conditional-bound violations")


def test_criterion_4_soundness_harness():
    start = time.monotonic()
    rng = random.Random(4096)
    done = 0
    while done < 200:
        kb, ws = random_feasible_kb(rng, max_atoms=4, max_axioms=5)
        tracked = []
        for ax in kb.axioms:
            tracked.append(ax.consequent)
            if ax.antecedent != TRUE:
                tracked.append(ax.antecedent)
        tracked = list(dict.fromkeys(tracked))
        if len(tracked) >= 2:
            tracked.extend([And((tracked[0], tracked[1])), Or((tracked[0], tracked[1]))])
        tracked = list(dict.fromkeys(tracked))
        table, _ = propagate_fixpoint(kb, RuleSet.sound(), tracked)
        rep = judge_soundness_completeness(
            table, entailed_intervals(kb, ws, tracked)
        )
        assert rep.aggregate in (SOUND_AND_COMPLETE, SOUND_INCOMPLETE), (
            f"sound rules judged unsound on theory {[str(a) for a in kb.axioms]}"
        )
        done += 1

    # seeded fuzzy-rule theory judged unsound (the rule invents dependence)
    kb = parse_kb("atom A B\nbackground !(A & B)\nP(A) = 0.5\nP(B) = 0.5")
    ws = build_world_space(kb.atoms, kb.background)
    conj = parse_sentence("A & B")
    tracked = [Atom("A"), Atom("B"), conj]
    table, _ = propagate_fixpoint(kb, RuleSet.fuzzy(), tracked)
    rep = judge_soundness_completeness(table, entailed_intervals(kb, ws, tracked))
    assert rep.aggregate == UNSOUND
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(4, f"200/200 random theories judged sound, fuzzy theory judged unsound ({elapsed:.1f}s < 60s)")


@pytest.mark.slow
def test_criterion_5_oracle_equivalence():
    rng = random.Random(555)
    vertex_checked = 0
    while vertex_checked < 100:
        kb, ws = random_feasible_kb(rng, max_atoms=3, max_axioms=3)
        target = random_sentence(rng, kb.atoms)
        lp = entail_conditional(kb, ws, target).interval
        assert vertex_bounds(kb, ws, target) == lp
        vertex_checked += 1

    # grid agreement on <= 5 worlds; unconditional band axioms keep the
    # slack from being amplified through small-probability antecedents
    grid_checked = 0
    tol = F(1, 100)
    cfg = GridSearchConfig(step=F(1, 100), slack=F(1, 200))
    while grid_checked < 30:
        names = ("A", "B")
        ws = build_world_space(names)
        axioms = []
        for _ in range(rng.randint(1, 3)):
            lo, hi = sorted((rng.randint(0, 20), rng.randint(0, 20)))
            axioms.append(
                CpiAxiom(
                    random_sentence(rng, names),
                    TRUE,
                    ProbabilityInterval(F(lo, 20), F(hi, 20)),
                )
            )
        kb = KnowledgeBase(atoms=names, axioms=tuple(axioms))
        from cpibounds import feasible

        if not feasible(kb, ws):
            continue
        target = random_sentence(rng, names)
        lp = entail_conditional(kb, ws, target).interval
        grid = grid_bounds(kb, ws, target, cfg=cfg)
        assert grid is not None
        assert abs(grid.lower - lp.lower) <= tol
        assert abs(grid.upper - lp.upper) <= tol
        grid_checked += 1
    report(5, f"vertex enumeration matched LP exactly on 100 instances; grid within 1/100 on {grid_checked}")


def test_criterion_6_augmented_entailment():
    ws = build_world_space(["A", "B"])
    target = parse_sentence("A & B")
    tolerance = F(1, 10**6)
    cfg = GridSearchConfig(step=F(1, 100), slack=F(1, 100))

    kb = parse_kb("atom A B\nP(A) = 0.5\nP(B) = 0.4\nassume indep(A, B)")
    res = entail_augmented(kb, ws, target, tolerance=tolerance)
    assert res.nodes <= 100
    assert abs(res.interval.lower - F(1, 5)) <= tolerance
    assert abs(res.interval.upper - F(1, 5)) <= tolerance
    grid = grid_bounds(kb, ws, target, cfg=cfg)
    assert grid is not None
    assert abs(grid.lower - F(1, 5)) <= F(3, 100)
    assert abs(grid.upper - F(1, 5)) <= F(3, 100)

    kb2 = parse_kb("atom A B\nP(A) = 0.5\nP(B) = 0.4\nassume negcorr(A, B)")
    res2 = entail_augmented(kb2, ws, target, tolerance=tolerance)
    assert abs(res2.interval.lower - F(0)) <= tolerance
    assert abs(res2.interval.upper - F(1, 5)) <= tolerance
    grid2 = grid_bounds(kb2, ws, target, cfg=cfg)
    assert grid2 is not None
    assert grid2.lower <= F(3, 100)
    assert abs(grid2.upper - F(1, 5)) <= F(3, 100)
    report(6, f"independence converged to [1/5, 1/5] in {res.nodes} nodes; negative correlation to [0, 1/5]; both grid-certified")


def test_criterion_7_maximum_entropy_convergence():
    start = time.monotonic()
    kb = parse_kb("atom A B\nP(A) = 0.7\nP(A -> B) = 0.8\nquery P(B)\nquery P(A)")
    ws = build_world_space(kb.atoms)
    rep = precision_report(kb, ws)
    assert rep.solution.kkt_residual < 1e-8
    b_entry, a_entry = rep.entries
    assert b_entry.interval == ProbabilityInterval(F(1, 2), F(4, 5))
    assert b_entry.classification == PARTIAL
    assert (
        float(b_entry.interval.lower)
        < b_entry.maxent_value
        < float(b_entry.interval.upper)
    )
    assert a_entry.classification == PINNED
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(7, f"maxent P(B) = {b_entry.maxent_value:.6f} strictly inside [1/2, 4/5], residual {rep.solution.kkt_residual:.1e} ({elapsed:.2f}s < 5s)")


def test_criterion_8_dempster_rule_algebra():
    rng = random.Random(888)

    def random_mass(frame):
        masks = rng.sample(
            range(1, frame.full_mask + 1), k=rng.randint(1, min(4, frame.full_mask))
        )
        weights = [F(rng.randint(1, 9)) for _ in masks]
        total = sum(weights)
        return MassFunction(frame, {m: w / total for m, w in zip(masks, weights)})

    triples = 0
    while triples < 100:
        size = rng.randint(2, 4)
        frame = Frame(tuple("abcd"[:size]))
        m1, m2, m3 = (random_mass(frame) for _ in range(3))
        try:
            ab = dempster_combine(m1, m2)[0]
            ba = dempster_combine(m2, m1)[0]
            assert ab == ba
            left = dempster_combine(ab, m3)[0]
            right = dempster_combine(m1, dempster_combine(m2, m3)[0])[0]
            assert left == right
        except TotalConflictError:
            continue
        vac = MassFunction.vacuous(frame)
        assert dempster_combine(m1, vac)[0] == m1
        assert dempster_combine(vac, m1)[1] == F(0)
        triples += 1

    frame = Frame(("a", "b"))
    with pytest.raises(TotalConflictError):
        dempster_combine(
            MassFunction.from_named(frame, {("a",): 1}),
            MassFunction.from_named(frame, {("b",): 1}),
        )
    report(8, "100 random triples combine commutatively and associatively; vacuous is the identity; total conflict detected")


def test_criterion_9_consistency_machinery(tmp_path, capsys):
    path = tmp_path / "overdetermined.kb"
    path.write_text("atom A B\n0.6 <= P(A)\nP(A) <= 0.4\nP(B) = 0.5\n")
    code = main(["entail", str(path), "--json"])
    out = capsys.readouterr().out
    assert code == 2
    doc = json.loads(out)
    assert doc["feasible"] is False
    assert doc["diagnosis"] == [1, 2]
    report(9, "overdetermined KB exits with code 2 and diagnosis {axiom 1, axiom 2}")

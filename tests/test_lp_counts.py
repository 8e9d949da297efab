"""How many exact LPs each caller solves: no LP whose result is discarded.

``solve_lp`` is wrapped at every lookup site inside the package, so each
test sees every LP its call solves, and can check the pivots the CLI
reports against the pivots those LPs ran.
"""

import json
import sys

import pytest

from cpibounds import (
    build_world_space,
    diagnose_inconsistency,
    disjunction,
    entail_augmented,
    entail_conditional,
    envelope_from_entailment,
    parse_kb,
    parse_sentence,
    solve_maxent,
)
from cpibounds.cli import main
from cpibounds.dempster import frame_mapping_from_kb
from cpibounds.simplex import solve_lp

BASIC = """\
atom A B C
P(A) = 0.7
P(A -> B) = 0.8
0.2 <= P(C | B) <= 0.6
query P(B)
query P(C | A)
query P(A & C | B | C)
"""

FRAME = """\
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

INCONSISTENT = "atom A B\nP(A) = 0.3\nP(A & B) = 0.4\nquery P(B)\n"

AUGMENTED = "atom A B\nP(A) = 0.5\nP(B) = 0.4\nassume indep(A, B)\nquery P(A & B)\n"

# infeasible through axioms 1 and 2 alone; the deletion filter drops axiom 3
THREE_AXIOMS = "atom A B\n0.6 <= P(A)\nP(A) <= 0.4\n0.1 <= P(B)\n"


@pytest.fixture
def lp_calls(monkeypatch):
    """Records the result of every LP the package solves."""
    calls = []

    def counted(num_vars, rows, objective, sense="min"):
        result = solve_lp(num_vars, rows, objective, sense)
        calls.append(result)
        return result

    for name, module in list(sys.modules.items()):
        if name.startswith("cpibounds.") and getattr(module, "solve_lp", None) is solve_lp:
            monkeypatch.setattr(module, "solve_lp", counted)
    return calls


def test_conditional_query_runs_two_lps(lp_calls):
    kb = parse_kb(BASIC)
    ws = build_world_space(kb.atoms)
    result = entail_conditional(kb, ws, parse_sentence("C"), parse_sentence("A"))
    assert result.status == "determined"
    assert len(lp_calls) == 2


def test_maxent_presolve_is_one_lp(lp_calls):
    kb = parse_kb(BASIC)
    solve_maxent(kb, build_world_space(kb.atoms))
    assert len(lp_calls) == 1


def test_envelope_runs_one_lp_pair_per_complementary_pair(lp_calls):
    kb = parse_kb(FRAME)
    ws = build_world_space(kb.atoms, kb.background)
    mapping = frame_mapping_from_kb(kb)
    envelope = envelope_from_entailment(kb, ws, mapping)
    assert len(lp_calls) == 2 ** len(mapping) - 2
    sentences = list(mapping.values())
    for mask in envelope.frame.subsets():
        members = [s for i, s in enumerate(sentences) if mask >> i & 1]
        expected = entail_conditional(kb, ws, disjunction(*members))
        assert envelope.lower(mask) == expected.interval.lower


def test_check_diagnosis_runs_one_lp_per_axiom(lp_calls, tmp_path, capsys):
    path = tmp_path / "three.kb"
    path.write_text(THREE_AXIOMS)
    assert main(["check", str(path)]) == 2
    assert "axiom 1, axiom 2" in capsys.readouterr().out
    # the gate, then one trial per axiom; the full set is never re-solved
    assert len(lp_calls) == 1 + 3


def test_diagnosis_lps_have_no_assumption_columns(tmp_path, monkeypatch):
    widths = []

    def counted(num_vars, rows, objective, sense="min"):
        widths.append(num_vars)
        return solve_lp(num_vars, rows, objective, sense)

    for name, module in list(sys.modules.items()):
        if name.startswith("cpibounds.") and getattr(module, "solve_lp", None) is solve_lp:
            monkeypatch.setattr(module, "solve_lp", counted)
    kb = parse_kb(THREE_AXIOMS + "assume indep(A, B)\n")
    ws = build_world_space(kb.atoms)
    assert diagnose_inconsistency(kb, ws) == [0, 1]
    # merged world classes plus the scale, and still no assumption column;
    # the first two trials keep the axiom on B and see all four worlds,
    # the last drops it and sees only the two classes of A
    assert widths == [5, 5, 3]


def test_branch_and_bound_boxes_only_product_factors(lp_calls):
    kb = parse_kb(AUGMENTED)
    ws = build_world_space(kb.atoms)
    res = entail_augmented(kb, ws, parse_sentence("A & B"))
    # one min/max box pair each for P(A) and P(B), none for the bare P(A & B)
    assert len(lp_calls) == 4 + res.nodes


def test_entail_maxent_solves_each_query_once(lp_calls, tmp_path, capsys):
    path = tmp_path / "basic.kb"
    path.write_text(BASIC)
    assert main(["entail", str(path), "--maxent"]) == 0
    assert "maxent=" in capsys.readouterr().out
    queries = len(parse_kb(BASIC).queries)
    # one feasibility LP, a min/max pair per query, one maxent presolve LP
    assert len(lp_calls) == 1 + 2 * queries + 1


@pytest.mark.parametrize("method", ["vertex", "grid"])
def test_oracle_solves_no_lp(lp_calls, tmp_path, capsys, method):
    path = tmp_path / "small.kb"
    path.write_text("atom A B\nP(A) = 0.7\nP(A -> B) = 0.8\nquery P(B)\n")
    assert main(["oracle", str(path), "--method", method, "--step", "1/10"]) == 0
    assert "P(B): [1/2, 4/5]" in capsys.readouterr().out
    assert lp_calls == []


@pytest.mark.parametrize(
    "text, argv, code",
    [
        (BASIC, ["entail"], 0),  # the feasibility gate included
        (BASIC, ["entail", "--maxent"], 0),
        (AUGMENTED, ["entail"], 0),
        (BASIC, ["check"], 0),
        (BASIC, ["maxent"], 0),
        (BASIC, ["propagate", "--judge"], 0),
        (INCONSISTENT, ["check"], 2),  # gate and diagnosis
        (INCONSISTENT, ["entail"], 2),
    ],
    ids=["entail", "entail-maxent", "entail-bb", "check", "maxent", "propagate-judge",
         "check-diagnosis", "entail-diagnosis"],
)
def test_json_lp_pivots_are_the_pivots_run(lp_calls, tmp_path, capsys, text, argv, code):
    path = tmp_path / "input.kb"
    path.write_text(text)
    assert main([argv[0], str(path), "--json", *argv[1:]]) == code
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert lp_calls and stats["lp_pivots"] == sum(lp.pivots for lp in lp_calls)


def test_text_lp_pivots_are_the_pivots_run(lp_calls, tmp_path, capsys):
    path = tmp_path / "basic.kb"
    path.write_text(BASIC)
    assert main(["entail", str(path), "--maxent"]) == 0
    ran = sum(lp.pivots for lp in lp_calls)
    assert f"stats: lp_pivots={ran} " in capsys.readouterr().out

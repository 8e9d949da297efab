"""CLI behavior: exit codes, output formats, JSON round-trips, determinism."""

import json
import re
from fractions import Fraction

import pytest

from cpibounds import cli
from cpibounds.cli import decimal_str, main

F = Fraction

BASIC = """\
atom A B
P(A) = 0.7
P(A -> B) = 0.8
query P(B)
"""

OVERDETERMINED = """\
atom A B
0.6 <= P(A)
P(A) <= 0.4
P(B) = 0.5
"""

COUNTEREXAMPLE = """\
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

FRAMED_INCONSISTENT = COUNTEREXAMPLE + "P(A) = 0.9\nP(B) = 0.9\n"

MASSES = """\
frame a b c
mass s1 {a}: 0.6, {a, b, c}: 0.4
mass s2 {a}: 0.5, {a, b, c}: 0.5
mass cert_a {a}: 1
mass cert_b {b}: 1
"""

AUGMENTED = """\
atom A B
P(A) = 0.5
P(B) = 0.4
assume indep(A, B)
query P(A & B)
"""


@pytest.fixture
def kb_file(tmp_path):
    def write(text, name="input.kb"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecimalRendering:
    def test_exact_and_rounded(self):
        assert decimal_str(F(3, 10)) == "0.3"
        assert decimal_str(F(1, 3)) == "0.333333"
        assert decimal_str(F(2, 3)) == "0.666667"
        assert decimal_str(F(1)) == "1"

    def test_half_to_even(self):
        assert decimal_str(F(1, 2), places=0) == "0"
        assert decimal_str(F(3, 2), places=0) == "2"
        assert decimal_str(F(5, 2000000)) == "0.000002"  # 0.0000025 -> even

    def test_places_flag(self):
        assert decimal_str(F(1, 3), places=2) == "0.33"


class TestEntail:
    def test_basic_query(self, capsys, kb_file):
        code, out, _ = run(capsys, "entail", kb_file(BASIC))
        assert code == 0
        assert "P(B): [0.5, 0.8] (exact 1/2, 4/5)" in out

    def test_inconsistent_exits_2_with_diagnosis(self, capsys, kb_file):
        code, out, _ = run(capsys, "entail", kb_file(OVERDETERMINED))
        assert code == 2
        assert "axiom 1, axiom 2" in out

    def test_json_diagnosis(self, capsys, kb_file):
        code, out, _ = run(capsys, "entail", kb_file(OVERDETERMINED), "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["feasible"] is False
        assert doc["diagnosis"] == [1, 2]

    def test_json_round_trips_exact_rationals(self, capsys, kb_file):
        code, out, _ = run(capsys, "entail", kb_file(BASIC), "--json")
        assert code == 0
        doc = json.loads(out)
        (query,) = doc["queries"]
        assert query["query"] == "P(B)"
        assert F(query["lower"]["num"], query["lower"]["den"]) == F(1, 2)
        assert F(query["upper"]["num"], query["upper"]["den"]) == F(4, 5)
        assert query["status"] == "determined"
        assert query["method"] == "lp"
        assert doc["feasible"] is True and doc["diagnosis"] is None

    def test_assumptions_use_branch_and_bound(self, capsys, kb_file):
        code, out, _ = run(capsys, "entail", kb_file(AUGMENTED), "--json")
        assert code == 0
        doc = json.loads(out)
        (query,) = doc["queries"]
        assert query["method"] == "branch-and-bound"
        assert F(query["lower"]["num"], query["lower"]["den"]) == F(1, 5)
        assert doc["stats"]["bb_nodes"] >= 1

    def test_maxent_column(self, capsys, kb_file):
        code, out, _ = run(capsys, "entail", kb_file(BASIC), "--maxent")
        assert code == 0
        assert "maxent=0.65" in out and "partially_determined" in out

    @pytest.mark.parametrize("flags", [["--bogus"], ["--jobs", "4"]])
    def test_bad_flag_is_usage_error(self, capsys, kb_file, flags):
        with pytest.raises(SystemExit) as exc:
            main(["entail", kb_file(BASIC), *flags])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--places", "-2"], ["--node-cap", "-3"], ["--atom-cap", "0"]]
    )
    def test_out_of_range_flag_is_usage_error(self, capsys, kb_file, flags):
        with pytest.raises(SystemExit) as exc:
            main(["entail", kb_file(BASIC), *flags])
        assert exc.value.code == 1
        assert "must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("entail", "--tolerance=1/0"),
            ("entail", "--tolerance=abc"),
            ("entail", "--tolerance=-1/10"),  # "=" keeps argparse from reading a flag
            ("oracle", "--step=1/0"),
        ],
    )
    def test_bad_rational_flag_is_usage_error(self, capsys, kb_file, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, kb_file(BASIC), flag])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "error: argument" in err and "Traceback" not in err

    def test_branch_and_bound_reports_pivots(self, capsys, kb_file):
        code, out, _ = run(capsys, "entail", kb_file(AUGMENTED), "--json")
        assert code == 0
        assert json.loads(out)["stats"]["lp_pivots"] > 0

    def test_deterministic_output(self, capsys, kb_file):
        path = kb_file(BASIC)
        _, first, _ = run(capsys, "entail", path, "--json")
        _, second, _ = run(capsys, "entail", path, "--json")
        assert first == second

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "entail", "/nonexistent/path.kb")
        assert code == 1 and "error" in err

    def test_atom_cap_flag(self, capsys, kb_file):
        names = " ".join(f"x{i}" for i in range(8))
        path = kb_file(f"atom {names}\nquery P(x0)\n")
        code, _, err = run(capsys, "entail", path, "--atom-cap", "4")
        assert code == 1 and "cap" in err
        code, out, _ = run(capsys, "entail", path, "--atom-cap", "8")
        assert code == 0 and "P(x0): [0, 1]" in out

    def test_parse_error_is_usage_error(self, capsys, kb_file):
        code, _, err = run(capsys, "entail", kb_file("atom A\nP(A) <=> 1"))
        assert code == 1


class TestCheck:
    def test_feasible(self, capsys, kb_file):
        code, out, _ = run(capsys, "check", kb_file(BASIC))
        assert code == 0 and "feasible" in out

    def test_infeasible(self, capsys, kb_file):
        code, _, _ = run(capsys, "check", kb_file(OVERDETERMINED))
        assert code == 2


class TestPropagate:
    def test_judged_propagation(self, capsys, kb_file):
        text = "atom A B\nP(A) = 0.3\nP(B) = 0.5\nquery P(A & B)\nquery P((A | B))\n"
        code, out, _ = run(capsys, "propagate", kb_file(text), "--judge")
        assert code == 0
        assert "P(A & B): [0, 0.3]" in out
        assert "P((A | B)): [0.5, 0.8]" in out
        assert "aggregate verdict: sound_and_complete" in out

    def test_rule_selection(self, capsys, kb_file):
        text = "atom A B\nP(A) = 0.3\nquery P(A & B)\n"
        code, out, _ = run(
            capsys, "propagate", kb_file(text), "--rules", "negation"
        )
        assert code == 0
        assert "P(A & B): [0, 1]" in out  # frechet disabled: stays vacuous

    def test_propagate_alias_is_usage_error(self, capsys, kb_file):
        with pytest.raises(SystemExit) as exc:
            main(["propagate", kb_file(BASIC), "--propagate", "negation"])
        assert exc.value.code == 1

    def test_unknown_rule(self, capsys, kb_file):
        code, _, err = run(
            capsys, "propagate", kb_file(BASIC), "--rules", "wishful"
        )
        assert code == 1


class TestMaxent:
    def test_report(self, capsys, kb_file):
        code, out, _ = run(capsys, "maxent", kb_file(BASIC))
        assert code == 0
        assert "maxent=0.65" in out
        assert "converged=True" in out

    def test_json_fields(self, capsys, kb_file):
        code, out, _ = run(capsys, "maxent", kb_file(BASIC), "--json")
        doc = json.loads(out)
        (query,) = doc["queries"]
        assert query["method"] == "maxent"
        assert query["classification"] == "partially_determined"
        assert doc["kkt_residual"] < 1e-8

    def test_places_reach_maxent_values(self, capsys, kb_file):
        code, out, _ = run(capsys, "maxent", kb_file(BASIC), "--places", "2")
        assert code == 0
        assert "maxent=0.65 [" in out and "entropy=1.24 " in out
        code, out, _ = run(
            capsys, "entail", kb_file(BASIC), "--maxent", "--places", "2"
        )
        assert code == 0
        assert "maxent=0.65 [" in out

    def test_json_iterations_are_not_sweeps(self, capsys, kb_file):
        code, out, _ = run(capsys, "maxent", kb_file(BASIC), "--json")
        doc = json.loads(out)
        assert list(doc)[-3:] == ["kkt_residual", "iterations", "converged"]
        assert doc["iterations"] >= 1
        assert doc["stats"]["sweeps"] == 0


class TestDs:
    def test_representable_counterexample(self, capsys, kb_file):
        code, out, _ = run(capsys, "ds", "representable", kb_file(COUNTEREXAMPLE))
        assert code == 0
        assert "NOT representable: m({A, B, C}) = -1/5" in out

    def test_representable_json(self, capsys, kb_file):
        code, out, _ = run(
            capsys, "ds", "representable", kb_file(COUNTEREXAMPLE), "--json"
        )
        doc = json.loads(out)
        assert doc["representable"] is False
        assert doc["witness"] == {"subset": ["A", "B", "C"], "num": -1, "den": 5}

    def test_envelope(self, capsys, kb_file):
        code, out, _ = run(capsys, "ds", "envelope", kb_file(COUNTEREXAMPLE))
        assert code == 0
        assert "lower({A, B}) = 3/10" in out
        assert "lower({A, B, C}) = 1" in out

    @pytest.mark.parametrize("action", ["envelope", "representable"])
    def test_inconsistent_frame_exits_2_with_diagnosis(self, capsys, kb_file, action):
        path = kb_file(FRAMED_INCONSISTENT)
        code, out, _ = run(capsys, "ds", action, path)
        assert code == 2
        assert "minimal conflicting subset: axiom 4, axiom 5" in out
        code, out, _ = run(capsys, "ds", action, path, "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["feasible"] is False and doc["diagnosis"] == [4, 5]

    def test_inconsistent_without_frame_is_usage_error(self, capsys, kb_file):
        code, out, err = run(capsys, "ds", "envelope", kb_file(OVERDETERMINED))
        assert code == 1 and out == ""
        assert "declares no frame" in err

    def test_combine_named_sources(self, capsys, kb_file):
        code, out, _ = run(capsys, "ds", "combine", kb_file(MASSES), "s1", "s2")
        assert code == 0
        assert "m({a}) = 4/5 (0.8)" in out
        assert "conflict: 0" in out

    def test_combine_with_vacuous_echoes(self, capsys, kb_file):
        text = "frame a b\nmass m {a}: 0.6, {a, b}: 0.4\nmass vac {a, b}: 1\n"
        code, out, _ = run(capsys, "ds", "combine", kb_file(text))
        assert code == 0
        assert "m({a}) = 3/5 (0.6)" in out

    def test_total_conflict_exits_3(self, capsys, kb_file):
        code, _, err = run(
            capsys, "ds", "combine", kb_file(MASSES), "cert_a", "cert_b"
        )
        assert code == 3
        assert err == (
            "total conflict: evidence is flatly contradictory (conflict = 1)"
            " at source 2 of 2\n"
        )

    def test_unknown_source(self, capsys, kb_file):
        code, _, err = run(capsys, "ds", "combine", kb_file(MASSES), "nope")
        assert code == 1

    @pytest.mark.parametrize("action", ["envelope", "representable"])
    def test_sources_only_for_combine(self, capsys, kb_file, monkeypatch, action):
        path = kb_file(COUNTEREXAMPLE)
        monkeypatch.setattr(cli, "load_kb", lambda _: pytest.fail("KB was loaded"))
        code, out, err = run(capsys, "ds", action, path, "bogus", "extra")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "'bogus', 'extra'" in err


class TestOracleCommand:
    def test_vertex_method(self, capsys, kb_file):
        code, out, _ = run(
            capsys, "oracle", kb_file(BASIC), "--method", "vertex"
        )
        assert code == 0
        assert "P(B): [1/2, 4/5]" in out

    def test_grid_method(self, capsys, kb_file):
        code, out, _ = run(
            capsys, "oracle", kb_file(BASIC), "--method", "grid", "--step", "1/50"
        )
        assert code == 0
        assert "P(B): [1/2, 4/5]" in out


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("atom A\nP(A) = 0.5\nquery P(A)"))
    code = main(["entail", "-"])
    out = capsys.readouterr().out
    assert code == 0
    assert "P(A): [0.5, 0.5]" in out


# every exact rational the text output shows, in order
TEXT_RATIONAL = re.compile(
    r"(?:exact |, |(?<![<>])= |conflict: )(-?\d+(?:/\d+)?)(?=[,)\s]|$)"
)
COMMANDS = [
    ["entail", "{kb}"], ["entail", "{kb}", "--maxent"], ["check", "{kb}"],
    ["propagate", "{kb}", "--judge"], ["maxent", "{kb}"],
    ["ds", "envelope", "{kb}"], ["ds", "representable", "{kb}"],
    ["ds", "combine", "{kb}"], ["ds", "combine", "{kb}", "s1", "s2"],
]
FIXTURES = {
    "basic": BASIC, "overdetermined": OVERDETERMINED, "counterexample": COUNTEREXAMPLE,
    "framed_inconsistent": FRAMED_INCONSISTENT, "masses": MASSES, "augmented": AUGMENTED,
}


def json_rationals(node):
    if isinstance(node, dict):
        if "num" in node and "den" in node:
            return [F(node["num"], node["den"])]
        return [r for value in node.values() for r in json_rationals(value)]
    if isinstance(node, list):
        return [r for value in node for r in json_rationals(value)]
    return []


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_text_and_json_agree(capsys, kb_file, fixture, command):
    path = kb_file(FIXTURES[fixture])
    argv = [path if arg == "{kb}" else arg for arg in command]
    code, text, _ = run(capsys, *argv)
    json_code, out, _ = run(capsys, *argv, "--json")
    assert code == json_code
    if not out:
        assert text == ""
        return
    doc = json.loads(out)
    if code == 2:
        listed = re.search(r"minimal conflicting subset: (.*)", text).group(1)
        assert [int(n) for n in re.findall(r"\d+", listed)] == doc["diagnosis"]
        return
    shown = [F(r) for r in TEXT_RATIONAL.findall(text)]
    if doc.get("conflict") == []:
        shown.remove(F(0))  # "conflict: 0" renders an empty conflict list
    assert shown == json_rationals(doc)

"""The package names the benchmark under ``perfbench/`` looks up still exist.

The benchmark wraps functions by name and imports others, so a rename in
the package would break it only at benchmark time; these tests break
first.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import cpibounds
from cpibounds import cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves():
    wrapped = _load_spans().WRAPPED
    assert wrapped
    for home, name, _ in wrapped:
        module = importlib.import_module(f"cpibounds.{home}")
        assert callable(getattr(module, name, None)), f"cpibounds.{home}.{name}"


def test_every_benchmark_import_resolves():
    imported = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cpibounds"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"
                    imported.append(alias.name)
    # checks.py reads these from the package root
    assert {"build_world_space", "linearize", "parse_kb"} <= set(imported)


def test_checks_reads_worlds_and_rows():
    kb = cpibounds.parse_kb("atom A B\n0.2 <= P(A | B) <= 0.6")
    ws = cpibounds.build_world_space(kb.atoms, kb.background)
    assert [w.values for w in ws.worlds][1] == (False, True)
    rels = [row.rel for row in cpibounds.linearize(kb.axioms[0], ws)]
    assert rels == [">=", "<="]
    assert all(isinstance(row.coeffs, dict) for row in cpibounds.linearize(kb.axioms[0], ws))


PLAIN = "atom A B\nP(A) = 0.5\nP(B) = 0.4\nquery P(A & B)\n"


@pytest.mark.parametrize(
    "command, text, tapped",
    [
        (["maxent"], PLAIN, ["precision_report"]),
        (["entail", "--maxent"], PLAIN, ["precision_report"]),
        (["entail"], PLAIN + "assume indep(A, B)\n", ["entail_augmented"]),
    ],
    ids=["maxent", "entail-maxent", "entail-bb"],
)
def test_the_cli_calls_what_the_worker_taps(command, text, tapped, tmp_path, monkeypatch):
    # worker.py rebinds these two names on ``cli`` to read the convergence
    # flags; a call that bypassed them would leave a share sampled from nothing
    calls = []

    def recording(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("precision_report", "entail_augmented"):
        monkeypatch.setattr(cli, name, recording(name))
    kb = tmp_path / "tap.kb"
    kb.write_text(text)
    assert cli.main([command[0], str(kb), *command[1:]]) == 0
    assert calls == tapped

"""Every LP the package solves is built by one builder.

``kb_rows`` and ``linearize`` give the per-world rows of the axioms: the
reference definition of the problem, which the judge (``tests/judge.py``)
checks answers against.  The solving modules build their LPs over world
classes with ``entailment._class_program``; a new caller of the per-world
rows would be a second builder, so these tests break first.  The judge
itself imports no solving module, so it shares no code with the solver.
"""

import ast
from pathlib import Path

import cpibounds

PACKAGE = Path(cpibounds.__file__).resolve().parent
JUDGE = Path(__file__).resolve().parent / "judge.py"
PER_WORLD = {"kb_rows", "linearize"}


def _references(path: Path) -> set:
    """How ``path`` mentions the per-world builders: "import", "use" or both."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if PER_WORLD & {alias.name for alias in node.names}:
                found.add("import")
        elif isinstance(node, ast.Name) and node.id in PER_WORLD:
            found.add("use")
        elif isinstance(node, ast.Attribute) and node.attr in PER_WORLD:
            found.add("use")
        elif isinstance(node, ast.FunctionDef) and node.name in PER_WORLD:
            found.add("use")
    return found


def test_only_kb_and_the_oracles_build_per_world_rows():
    # inside the package only kb.py builds them; the judge, their other
    # caller, lives under tests/.  __init__ re-exports linearize for the
    # benchmark's HiGHS check and calls neither
    refs = {path.name: _references(path) for path in sorted(PACKAGE.glob("*.py"))}
    users = {name for name, found in refs.items() if found}
    assert users == {"__init__.py", "kb.py"}
    assert refs["__init__.py"] == {"import"}


def test_the_judge_imports_no_solver():
    imported = set()
    for node in ast.walk(ast.parse(JUDGE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    ours = {name for name in imported if name.split(".")[0] == "cpibounds"}
    assert ours == {"cpibounds.kb", "cpibounds.sentences", "cpibounds.errors"}

"""Every LP the package solves is built by one builder.

``kb_rows`` and ``linearize`` give the per-world rows of the axioms: the
reference definition of the problem, which the oracles check answers
against.  The solving modules build their LPs over world classes with
``entailment._class_program``; a new caller of the per-world rows would
be a second builder, so these tests break first.
"""

import ast
from pathlib import Path

import cpibounds

PACKAGE = Path(cpibounds.__file__).resolve().parent
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
    refs = {path.name: _references(path) for path in sorted(PACKAGE.glob("*.py"))}
    users = {name for name, found in refs.items() if found}
    # __init__ re-exports linearize for the benchmark's HiGHS check and
    # calls neither
    assert users == {"__init__.py", "kb.py", "oracle.py"}
    assert refs["__init__.py"] == {"import"}

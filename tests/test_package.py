"""The package's top-level namespace, and what importing it loads."""

import subprocess
import sys
from pathlib import Path
from types import ModuleType

import cpibounds


def test_star_import_binds_no_module():
    # ``from cpibounds import *`` must not bind, say, the module ``kb``
    # over the name a knowledge base usually has
    names = cpibounds.__all__
    assert [name for name in names if isinstance(getattr(cpibounds, name), ModuleType)] == []
    assert "kb" not in cpibounds.__all__ and hasattr(cpibounds, "kb")


STARTUP = """\
import sys
sys.path.insert(0, sys.argv[1])
from cpibounds import cli
cli.build_parser()
kb = sys.argv[2]
for argv in (["entail", kb], ["check", kb, "--json"], ["propagate", kb, "--judge"],
             ["ds", "envelope", kb]):
    assert cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "a command without maxent imported numpy"
assert cli.main(["maxent", kb]) == 0
assert "numpy" in sys.modules, "maxent solved without numpy"
"""


def test_only_a_maxent_solve_imports_numpy(tmp_path):
    # a fresh interpreter, since this one imported numpy long ago
    kb = tmp_path / "framed.kb"
    kb.write_text(
        "atom A B\nbackground A | B\nbackground !(A & B)\nframe A B\n"
        "0.3 <= P(A)\nquery P(B)\n"
    )
    src = Path(cpibounds.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", STARTUP, str(src), str(kb)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr

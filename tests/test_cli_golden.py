"""Golden CLI transcript: exact stdout, stderr and exit code of fixed calls.

Every call below runs ``cli.main`` in process on one of the small
knowledge bases in ``KBS``, written under their own names into an empty
directory, and the transcript of each call must match
``tests/golden_cli.json`` byte for byte, ``lp_pivots`` included.  The
calls cover plain LP entailment (a conditional and a vacuous query),
branch-and-bound under each assumption kind, infeasible axioms,
Dempster-Shafer frames and masses, and propagation; each runs in text
and with ``--json``.  ``maxent`` is left out: its floats follow numpy's
summation order, which a change of memory layout alone can alter.

A change that alters output on purpose (say, one that changes the
pivots an LP takes, and so ``lp_pivots``) regenerates the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and the diff of ``tests/golden_cli.json`` then shows exactly which
outputs changed; it should show nothing else.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from cpibounds.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

BB = ["--tolerance", "1/10000", "--node-cap", "12"]

KBS = {
    "lp.kb": """\
atom A B C
P(A) = 0.7
P(A -> B) = 0.8
0.2 <= P(C | A) <= 0.6
P((B | C)) >= 0.5
P(A & !B & !C) = 0
query P(B)
query P(B | A)
query P(C | !B)
query P(C | A & !B & !C)
""",
    "indep.kb": """\
atom A B
P((A | B)) = 0.8
P(A) <= 0.6
assume indep(A, B)
query P(A & B)
query P(A | B)
""",
    "indep_given.kb": """\
atom A B G
P(G) = 0.5
P(A | G) = 0.6
0.3 <= P(B | G) <= 0.7
P((A | B) | G) = 0.8
assume indep(A, B | G)
query P(A & B | G)
query P(A & B)
""",
    "indep_clash.kb": """\
atom A B G
P(G) = 0.5
P(A | G) = 0.6
0.3 <= P(B | G) <= 0.7
P((A | B) | G) = 0.9
assume indep(A, B | G)
query P(A & B | G)
""",
    "poscorr.kb": """\
atom A B
0.2 <= P(A) <= 0.8
P((A | B)) = 0.9
assume poscorr(A, B)
query P(A & !B)
query P(A & B)
query P(A | B)
""",
    "negcorr.kb": """\
atom A B
0.2 <= P(A) <= 0.8
P((A | B)) = 0.9
assume negcorr(A, B)
query P(A & B)
query P(!A & !B | !B)
query P(A | B)
""",
    "infeasible.kb": """\
atom A B
0.6 <= P(A)
P(B) = 0.5
P(A) <= 0.4
P(A & B) >= 0.1
query P(B)
""",
    "lowrance.kb": """\
atom A B C
background A | B | C
background !(A & B)
background !(A & C)
background !(B & C)
frame A B C
0.3 <= P((A | B))
0.4 <= P((A | C))
0.5 <= P((B | C))
""",
    "belief.kb": """\
atom A B C
background A | B | C
background !(A & B)
background !(A & C)
background !(B & C)
frame A B C
P(A) = 0.2
0.3 <= P((A | B))
""",
    "masses.kb": """\
frame a b c
mass s1 {a}: 0.6, {a, b, c}: 0.4
mass s2 {a}: 0.5, {b, c}: 0.25, {a, b, c}: 0.25
mass cert_a {a}: 1
mass cert_b {b}: 1
""",
    "chain.kb": """\
atom A B C
0.6 <= P(A) <= 0.9
P(B | A) >= 0.8
P(C | B) = 0.7
P(A & C) <= 0.5
query P(B)
query P(C & B)
query P((A | C))
""",
}

CALLS = [
    ["entail", "lp.kb"],
    ["entail", "lp.kb", "--places", "3"],
    *(["entail", name, *BB] for name in (
        "indep.kb", "indep_given.kb", "indep_clash.kb", "poscorr.kb", "negcorr.kb",
    )),
    ["entail", "indep.kb", "--tolerance", "1/10", "--node-cap", "3"],
    ["check", "lp.kb"],
    ["check", "infeasible.kb"],
    ["entail", "infeasible.kb"],
    ["propagate", "infeasible.kb"],
    ["ds", "envelope", "lowrance.kb"],
    ["ds", "representable", "lowrance.kb"],
    ["ds", "envelope", "belief.kb"],
    ["ds", "representable", "belief.kb"],
    ["ds", "representable", "chain.kb"],
    ["ds", "combine", "masses.kb"],
    ["ds", "combine", "masses.kb", "s2", "s1"],
    ["ds", "combine", "masses.kb", "cert_a", "cert_b"],
    ["ds", "combine", "masses.kb", "nobody"],
    ["propagate", "chain.kb"],
    ["propagate", "chain.kb", "--judge"],
    ["propagate", "chain.kb", "--judge", "--rules", "fuzzy_minmax"],
    ["propagate", "chain.kb", "--judge", "--rules", "negation,conditional_chain"],
    ["propagate", "lp.kb", "--judge"],
]
CALLS = [call for argv in CALLS for call in (argv, [*argv, "--json"])]


def transcript(argv) -> dict:
    """Exit code, stdout and stderr of ``cpibounds argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_kbs(directory) -> None:
    for name, text in KBS.items():
        Path(directory, name).write_text(text)


def golden() -> dict:
    return {" ".join(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_cli_transcript_matches_golden(argv, tmp_path, monkeypatch):
    write_kbs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert transcript(argv) == golden()[" ".join(argv)]


def test_golden_covers_every_call():
    assert list(golden()) == [" ".join(argv) for argv in CALLS]


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_kbs(directory)
        os.chdir(directory)
        entries = [transcript(argv) for argv in CALLS]
        os.chdir(here)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    sys.exit(0)

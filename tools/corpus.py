"""Transcripts of the benchmark corpus, and the calls on which two differ.

    python tools/corpus.py dump OUT.json [--src DIR]
    python tools/corpus.py diff A.json B.json [--mask-pivots]

``dump`` runs ``cpibounds.cli.main`` in process on every call of the
corpus, against the package under ``--src`` (this tree's ``src/`` by
default), and stores the exit code, stdout and stderr of each.  The corpus is instances 0-27 of
seeds 1 and 2 of every workload in ``perfbench/gen.py``: each instance
runs once with its benchmark arguments (``--json``) and once in text,
336 calls in all.  The knowledge base is written as ``request.kb`` into
an empty working directory, so no output names a temporary path.

``diff`` lists the calls whose transcripts differ and exits 1 if there
are any.  ``--mask-pivots`` ignores the ``lp_pivots`` counts, for
changes that alter the pivots an LP takes and nothing else.

To compare against another commit, check it out elsewhere (a clone or a
``git worktree``), dump with ``--src`` set to its ``src/``, dump again
without it, and diff the two files.  The corpus itself always comes from
this tree's ``perfbench/gen.py``, so both dumps run the same calls.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402

SEEDS = (1, 2)
KB_NAME = "request.kb"
_PIVOTS = re.compile(r'("lp_pivots": |lp_pivots=)\d+')


def calls():
    """(name, knowledge-base text, argv) of every corpus call, in a fixed order."""
    for workload in gen.WORKLOADS:
        for seed in SEEDS:
            for index in range(gen.POOL):
                inst = gen.instance(workload, seed, index)
                argv = [KB_NAME if a == "{kb}" else a for a in inst.argv]
                plain = [a for a in argv if a != "--json"]
                for args in (argv, plain):
                    yield f"{workload}/{seed}/{index} {' '.join(args)}", inst.text, args


def transcript(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def dump(path: str, src: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    from cpibounds.cli import main

    here = os.getcwd()
    entries = {}
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            for name, text, argv in calls():
                Path(KB_NAME).write_text(text, encoding="utf-8")
                entries[name] = transcript(main, argv)
        finally:
            os.chdir(here)
    Path(path).write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"{len(entries)} calls -> {path}")


def diff(a_path: str, b_path: str, mask_pivots: bool) -> int:
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (a_path, b_path))

    def seen(entry):
        if entry is None or not mask_pivots:
            return entry
        return {k: _PIVOTS.sub(r"\1N", v) if isinstance(v, str) else v
                for k, v in entry.items()}

    names = list(dict.fromkeys([*a, *b]))
    differ = 0
    for name in names:
        left, right = seen(a.get(name)), seen(b.get(name))
        if left == right:
            continue
        differ += 1
        if left is None or right is None:
            print(f"{name}: only in {a_path if right is None else b_path}")
        else:
            fields = [k for k in ("code", "stdout", "stderr") if left[k] != right[k]]
            print(f"{name}: {', '.join(fields)}")
    print(f"{differ} of {len(names)} calls differ")
    return 1 if differ else 0


def cli(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="run the corpus and store its transcripts")
    p.add_argument("out")
    p.add_argument("--src", default=str(ROOT / "src"),
                   help="directory to import cpibounds from (default: this tree's src/)")
    p = sub.add_parser("diff", help="list the calls whose transcripts differ")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--mask-pivots", action="store_true", help="ignore lp_pivots counts")
    args = ap.parse_args(argv)
    if args.command == "dump":
        dump(args.out, args.src)
        return 0
    return diff(args.a, args.b, args.mask_pivots)


if __name__ == "__main__":
    sys.exit(cli())

"""Benchmark of the cpibounds CLI: seeded workloads, checked answers, metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload entail-lp --seed 1 --seconds 20 --trace 0

``--workload all`` (the default) runs every workload in turn.  Each run
measures set-up time in fresh interpreters, drives the workload in its
own process (``worker.py``), checks every answer (``checks.py``) and
prints a report, then one JSON line with the metrics: the end-to-end
metrics with ``--trace 0``, the per-layer split with ``--trace 1``.
See README.md for the workloads and the metric definitions.

The request times are scaled to a reference host speed: each is
multiplied by ``REFERENCE_UNIT_S`` over the mean time of the reference
unit (``calib.py``) that the worker runs between requests, because
the shared hosts this runs on change speed by a third within a minute.
The report lines show the raw median too.  ``setup_s`` is not scaled.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from spans import COUNTS, END, FUNC, PARENT, REQUEST, SITE, START  # noqa: E402

SETUP_RUNS = 11
REFERENCE_UNIT_S = 0.005  # time of one reference unit on the reference host
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import cpibounds.cli; cpibounds.cli.build_parser()"
)
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
WORKER_GRACE_S = 120  # a request may finish past the window, within this


def setup_seconds(runs: int) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and build its parser."""
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True, cwd=ROOT)
        samples.append(time.perf_counter() - start)
    return samples


def run_worker(workload: str, seed: int, seconds: float, trace: int, requests: int = 0) -> dict:
    """Run ``worker.py`` for ``seconds``, or for ``requests`` requests if set."""
    workdir = HERE / ".work" / f"{workload}-{seed}-{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--requests", str(requests), "--workdir", str(workdir)],
            check=True, cwd=ROOT, timeout=seconds + WORKER_GRACE_S,
        )
        return json.loads((workdir / "worker.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:  # too few samples for any tail: report the median
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def signature_classes(inst: gen.Instance) -> int:
    """Distinct truth vectors of the worlds over every sentence of the KB."""
    sentences = [s for ax in inst.axioms for s in ax[:2] if s is not None]
    sentences += [s for q in inst.queries for s in q if s is not None]
    signatures = set()
    for bits in inst.planted:
        world = dict(zip(inst.atoms, bits))
        signatures.add(tuple(gen.evaluate(s, world) for s in sentences))
    return len(signatures)


def shape(instances) -> dict:
    n = len(instances)
    axioms = sum(len(i.axioms) for i in instances)
    queries = sum(len(i.queries) for i in instances)
    conditional = sum(ax[1] is not None for i in instances for ax in i.axioms)
    conditional += sum(q[1] is not None for i in instances for q in i.queries)
    return {
        "worlds": sum(len(i.planted) for i in instances) / n,
        "axioms": axioms / n,
        "queries": queries / n,
        "conditional_share": conditional / max(1, axioms + queries),
        "signature_share": sum(signature_classes(i) / len(i.planted) for i in instances) / n,
    }


def share(flags: list[bool]) -> float:
    """Share of true flags; 1 when there are none, as nothing failed."""
    return sum(flags) / len(flags) if flags else 1.0


def end_to_end(doc: dict, failed: int, ratios: list[float], setup: list[float]):
    records = doc["records"]
    raw = [r["s"] for r in records]
    unit_s = statistics.mean(u for r in records for u in r["cal"])
    scale = REFERENCE_UNIT_S / unit_s
    times = [t * scale for t in raw]
    flags = {"bb": [], "maxent": []}
    for record in records:
        for solver, ok in record["conv"]:
            flags[solver].append(ok)
    pct, tail_s = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "kb_p50_s": (statistics.median(times), "s"),
        "kb_tail_s": (tail_s, "s"),
        "kb_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (doc["maxrss_kb"] / 1024, "MB"),
        "ok_share": ((len(records) - failed) / len(records), "share"),
        "bb_converged_share": (share(flags["bb"]), "share"),
        "bb_width_ratio": (sum(ratios) / len(ratios) if ratios else 1.0, "share"),
        "maxent_converged_share": (share(flags["maxent"]), "share"),
    }
    notes = {"raw_kb_p50_s": round(statistics.median(raw), 6),
             "unit_ms": round(1000 * unit_s, 4),
             "tail_percentile": round(pct, 2), "requests": len(records),
             "bb_answers": len(flags["bb"]), "maxent_solves": len(flags["maxent"])}
    return metrics, notes


def self_times(spans) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def ancestors(spans) -> list[frozenset]:
    """Per span, the functions (and function@site) of every enclosing span."""
    out: list[frozenset] = []
    for span in spans:
        p = span[PARENT]
        if p < 0:
            out.append(frozenset())
        else:
            parent = spans[p]
            out.append(out[p] | {parent[FUNC], f"{parent[FUNC]}@{parent[SITE]}"})
    return out


def per_layer(doc: dict, instances) -> tuple[dict, dict]:
    spans = doc["spans"]
    records = doc["records"]
    n = len(records)
    own = self_times(spans)
    up = ancestors(spans)
    dur = [s[END] - s[START] for s in spans]

    def pick(func, under=None, site=None):
        return [
            k for k, s in enumerate(spans)
            if s[FUNC] == func and (under is None or under in up[k])
            and (site is None or s[SITE] == site)
        ]

    def total(idx, values):
        return sum(values[k] for k in idx)

    def counted(idx, key):
        return sum(spans[k][COUNTS][key] for k in idx)

    def ratio(a, b):
        return a / b if b else 0.0

    lps = pick("simplex.solve_lp")
    pivots = counted(lps, "pivots")
    simplex_self = total(lps, own)
    queries = len(pick("entailment.entail_conditional")) + len(pick("assumptions.entail_augmented"))
    bb = pick("assumptions.entail_augmented")
    solves = pick("maxent.solve_maxent")
    presolve = pick("entailment.probability_bounds", site="maxent")
    envelope = pick("dempster.envelope_from_entailment")
    judge = pick("propagation.entailed_intervals")
    diagnose = pick("kb.diagnose_inconsistency")
    feasible = [
        k for k, s in enumerate(spans)
        if s[FUNC] in ("entailment.feasible", "entailment.feasible_subset")
        and not {"entailment.feasible", "entailment.feasible_subset"} & up[k]
    ]
    entail_self = sum(
        own[k] for k, s in enumerate(spans) if s[FUNC].startswith("entailment.")
    )
    roots = [k for k, s in enumerate(spans) if s[FUNC] == "cli.main"]
    traced_s = sum(r["traced"]["s"] for r in records)
    untraced_s = sum(r["s"] for r in records)
    shapes = shape(instances)
    metrics = {
        "simplex.lps": (len(lps) / n, "count/kb"),
        "simplex.lps_per_query": (ratio(len(lps), queries), "count/query"),
        "kb.rows_calls_per_kb": (len(pick("kb.kb_rows")) / n, "count/kb"),
        "simplex.pivots": (pivots / n, "count/kb"),
        "simplex.pivots_per_lp": (ratio(pivots, len(lps)), "count/lp"),
        "simplex.us_per_pivot": (ratio(simplex_self, pivots) * 1e6, "us"),
        "simplex.s": (simplex_self / n, "s/kb"),
        "simplex.value_bits_max": (max((spans[k][COUNTS]["bits"] for k in lps), default=0), "bits"),
        "simplex.cols_max": (max((spans[k][COUNTS]["cols"] for k in lps), default=0), "count"),
        "simplex.rows_max": (max((spans[k][COUNTS]["rows"] for k in lps), default=0), "count"),
        "sentences.worlds_mean": (shapes["worlds"], "count"),
        "sentences.signature_share": (shapes["signature_share"], "share"),
        "sentences.world_space_s": (total(pick("sentences.build_world_space"), dur) / n, "s/kb"),
        "kb.parse_s": (total(pick("kb.parse_kb"), dur) / n, "s/kb"),
        "kb.rows_s": (total(pick("kb.kb_rows"), dur) / n, "s/kb"),
        "entailment.queries": (len(pick("entailment.entail_conditional")) / n, "count/kb"),
        "entailment.s": (entail_self / n, "s/kb"),
        "entailment.feasible_s": (total(feasible, dur) / n, "s/kb"),
        "assumptions.nodes": (counted(bb, "nodes") / n, "count/kb"),
        "assumptions.nodes_per_query": (ratio(counted(bb, "nodes"), len(bb)), "count/query"),
        "assumptions.box_lps": (
            len(pick("simplex.solve_lp", under="entailment.probability_bounds@assumptions")) / n,
            "count/kb"),
        "assumptions.lp_s": (
            total(pick("simplex.solve_lp", under="assumptions.entail_augmented"), dur) / n, "s/kb"),
        "assumptions.s": (total(bb, own) / n, "s/kb"),
        "assumptions.outer_bound_share": (ratio(counted(bb, "outer"), len(bb)), "share"),
        "maxent.presolve_lps": (
            len(pick("simplex.solve_lp", under="entailment.probability_bounds@maxent")) / n,
            "count/kb"),
        "maxent.presolve_s": (total(presolve, dur) / n, "s/kb"),
        "maxent.dual_s": (total(solves, own) / n, "s/kb"),
        "maxent.iterations": (ratio(counted(solves, "iterations"), len(solves)), "count/solve"),
        "maxent.report_lps": (
            len([k for k in pick("simplex.solve_lp", under="maxent.precision_report")
                 if "maxent.solve_maxent" not in up[k]]) / n, "count/kb"),
        "dempster.subsets": (
            len(pick("entailment.entail_conditional", under="dempster.envelope_from_entailment")) / n,
            "count/kb"),
        "dempster.envelope_lps": (
            len(pick("simplex.solve_lp", under="dempster.envelope_from_entailment")) / n,
            "count/kb"),
        "dempster.envelope_s": (total(envelope, dur) / n, "s/kb"),
        "dempster.moebius_s": (total(pick("dempster.mass_from_bel"), dur) / n, "s/kb"),
        "propagation.sweeps": (
            sum(spans[k][COUNTS]["sweeps"] for k in pick("propagation.propagate_fixpoint")) / n,
            "count/kb"),
        "propagation.fixpoint_s": (total(pick("propagation.propagate_fixpoint"), dur) / n, "s/kb"),
        "propagation.judge_lps": (
            len(pick("simplex.solve_lp", under="propagation.entailed_intervals")) / n, "count/kb"),
        "propagation.judge_s": (total(judge, dur) / n, "s/kb"),
        "kb.diagnose_lps": (
            len(pick("simplex.solve_lp", under="kb.diagnose_inconsistency")) / n, "count/kb"),
        "kb.diagnose_s": (total(diagnose, dur) / n, "s/kb"),
        "cli.self_s": (total(roots, own) / n, "s/kb"),
        "trace.overhead_share": (traced_s / untraced_s - 1, "share"),
    }
    # the span tree must account for the traced wall time of every request
    accounted = sum(own)
    notes = {
        "requests": n,
        "spans": len(spans),
        "self_s_total": accounted,
        "traced_s_total": traced_s,
        "untraced_s_total": untraced_s,
        "accounted": abs(accounted - total(roots, dur)) <= 1e-6 * max(1.0, accounted)
        and len(roots) == n,
    }
    return metrics, notes


def exact_counts(doc: dict) -> list[dict]:
    """Per request: LPs, pivots, nodes, iterations, sweeps and output digest."""
    per = {r["i"]: {"lps": 0, "pivots": 0, "nodes": 0, "iterations": 0, "sweeps": 0,
                    "digest": hashlib.sha256(r["traced"]["out"].encode()).hexdigest()}
           for r in doc["records"]}
    for span in doc["spans"]:
        c, row = span[COUNTS], per[span[REQUEST]]
        if span[FUNC] == "simplex.solve_lp":
            row["lps"] += 1
            row["pivots"] += c["pivots"]
        elif c is not None:
            for key in ("nodes", "iterations", "sweeps"):
                row[key] += c.get(key, 0)
    return [per[i] for i in sorted(per)]


def check_records(workload: str, seed: int, doc: dict, trace: bool):
    """Instances, failures (one per failing request) and B&B width ratios."""
    import checks

    instances, failures, ratios = [], [], []
    for record in doc["records"]:
        inst = gen.instance(workload, seed, record["i"])
        instances.append(inst)
        problems, widths = checks.check(inst, record["code"], record["out"])
        ratios += widths
        if record["err"] and record["code"] is None:
            problems.append(record["err"].strip().splitlines()[-1])
        if trace and (record["traced"]["code"], record["traced"]["out"]) != (
            record["code"], record["out"]
        ):
            problems.append("traced output differs from untraced output")
        if problems:
            failures.append((record["i"], inst.kind, problems))
    return instances, failures, ratios


def run(args, workload: str) -> dict:
    # set-up runs half before and half after the workload, so that its
    # samples span the run as the host's speed drifts
    setup = [] if args.trace else setup_seconds(SETUP_RUNS // 2)
    doc = run_worker(workload, args.seed, args.seconds, args.trace)
    if not args.trace:
        setup += setup_seconds(SETUP_RUNS - SETUP_RUNS // 2)
    instances, failures, ratios = check_records(workload, args.seed, doc, bool(args.trace))
    if args.trace:
        metrics, notes = per_layer(doc, instances)
        notes["exact_counts"] = hashlib.sha256(
            json.dumps(exact_counts(doc)).encode()).hexdigest()[:16]
    else:
        metrics, notes = end_to_end(doc, len(failures), ratios, setup)
        notes["shape"] = {k: round(v, 4) for k, v in shape(instances).items()}
    print(f"workload {workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for index, kind, problems in failures[:10]:
        print(f"  FAILED request {index} ({kind}): {'; '.join(problems)[:300]}")
    correct = not failures and (not args.trace or notes["accounted"])
    return {
        "correct": correct,
        "attempted": len(doc["records"]),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all", *gen.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "cpibounds" / "cli.py").is_file():
        print(f"error: no cpibounds sources under {SRC}", file=sys.stderr)
        return 2
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run(args, w) for w in workloads}
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-check of the traced run: exact counts repeat, self times add up.

Runs the traced worker twice per workload on the same seed and the same
number of requests, then checks that

* every request's exact counts (LPs, pivots, B&B nodes, maxent
  iterations, propagation sweeps) and output digest are identical in
  both runs, and
* the spans' self times sum to the traced wall time of the requests, so
  that they account for the untraced wall time up to the reported
  ``trace.overhead_share``.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py --seed 1 --requests 12
"""

from __future__ import annotations

import argparse
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--requests", type=int, default=12)
    args = ap.parse_args()
    ok = True
    for workload in run.gen.WORKLOADS:
        first, second = (
            run.run_worker(workload, args.seed, 0, 1, args.requests) for _ in range(2)
        )
        same = run.exact_counts(first) == run.exact_counts(second)
        instances = [run.gen.instance(workload, args.seed, r["i"]) for r in first["records"]]
        metrics, notes = run.per_layer(first, instances)
        overhead = metrics["trace.overhead_share"][0]
        # the spans start inside the request's timer, so allow a 1% gap
        gap = abs(notes["self_s_total"] / notes["untraced_s_total"] - 1)
        accounted = notes["accounted"] and gap <= abs(overhead) + 0.01
        totals = {
            key: sum(row[key] for row in run.exact_counts(first))
            for key in ("lps", "pivots", "nodes", "iterations", "sweeps")
        }
        print(f"{workload}: counts repeat {same}, self times account {accounted}, "
              f"overhead_share {overhead:+.4f}, totals {totals}")
        ok = ok and same and accounted
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

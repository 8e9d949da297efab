"""Runs one workload in process, in a closed loop with one client.

Started by ``run.py`` as its own process, so that its peak RSS is the
workload's alone.  Each request is one ``cpibounds.cli.main(argv)`` call
on one generated knowledge-base file; the KB is generated and written
before the clock starts.  A warm-up pass on instances outside the
measured sequence runs first and is not recorded.

With ``--trace 1`` every request runs twice, untraced and traced, so the
traced run carries its own untraced reference for the overhead.  After
each request reference units (``calib.py``) run for a tenth of its time
and are timed.  The raw records and spans go to ``worker.json`` in
``--workdir``; ``run.py`` checks and summarizes them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cpibounds.cli as cli  # noqa: E402
from cpibounds import assumptions, maxent  # noqa: E402

import calib  # noqa: E402
import gen  # noqa: E402
from spans import Tracer  # noqa: E402

WARMUP_S = 1.0
UNIT_SHARE = 0.1  # reference units run for this share of each request's time


def tap(sink: list):
    """Record the convergence flags the CLI's JSON does not carry.

    ``entail --json`` omits B&B convergence and ``entail --maxent`` omits
    maxent convergence, so both are read off the return values at the CLI
    lookup, in traced and untraced runs alike.  The taps call through the
    defining module, so a traced run still records those calls.
    """

    def tapped_augmented(*args, **kwargs):
        result = assumptions.entail_augmented(*args, **kwargs)
        sink.append(("bb", result.convergence == "converged"))
        return result

    def tapped_report(*args, **kwargs):
        result = maxent.precision_report(*args, **kwargs)
        sink.append(("maxent", result.solution.converged))
        return result

    cli.entail_augmented, cli.precision_report = tapped_augmented, tapped_report


def call(main, argv, sink) -> dict:
    out, err = io.StringIO(), io.StringIO()
    sink.clear()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crashing request is a failed request, not a failed run
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return {"code": code, "out": out.getvalue(), "err": err.getvalue(),
            "s": seconds, "conv": list(sink)}


def calibrate(seconds: float) -> list[float]:
    """Wall times of reference units run for about ``seconds``, at least one.

    The units gauge the host's speed while the workload runs; run for a
    fixed share of each request's time, they sample it evenly over time.
    """
    times: list[float] = []
    while not times or sum(times) < seconds:
        start = time.perf_counter()
        calib.unit()
        times.append(time.perf_counter() - start)
    return times


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--requests", type=int, default=0,
                    help="run exactly this many requests instead of --seconds")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    workdir = Path(args.workdir)
    kb_path = str(workdir / "request.kb")
    sink: list = []
    tap(sink)
    tracer = Tracer() if args.trace else None
    traced_main = tracer.wrap("cli.main", "worker", cli.main) if tracer else None

    def request(index: int) -> list:
        inst = gen.instance(args.workload, args.seed, index)
        Path(kb_path).write_text(inst.text, encoding="utf-8")
        return [kb_path if a == "{kb}" else a for a in inst.argv]

    start = time.perf_counter()
    warm = 0
    while warm < 2 or time.perf_counter() - start < WARMUP_S:
        warm += 1
        calibrate(UNIT_SHARE * call(cli.main, request(-warm), sink)["s"])

    records = []
    start = time.perf_counter()
    index = 0
    while (index < args.requests if args.requests
           else time.perf_counter() - start < args.seconds):
        argv = request(index)
        record = {"i": index}
        # the second run of an input is the faster one, so traced and
        # untraced runs take turns going first
        for traced in ((False, True), (True, False))[index % 2] if tracer else (False,):
            if traced:
                tracer.request = index
                tracer.enable()
                record["traced"] = call(traced_main, argv, sink)
                tracer.disable()
            else:
                record.update(call(cli.main, argv, sink))
        record["cal"] = calibrate(UNIT_SHARE * record["s"])
        records.append(record)
        index += 1

    doc = {
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "records": records,
        "spans": tracer.spans if tracer else [],
    }
    (workdir / "worker.json").write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

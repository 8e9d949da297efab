"""Spans around the package's public functions, recorded from outside it.

Each wrapped call records one span: function, lookup site, request id,
parent span, start, end and the counts read off its return value.  A
function is wrapped in every ``cpibounds`` module that binds it, which is
where its callers look it up, so lazy ``from .x import f`` lookups inside
function bodies are caught too.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import time

# span fields, stored as lists to keep the per-call cost small
FUNC, SITE, REQUEST, PARENT, START, END, COUNTS = range(7)


def _lp_counts(args, result):
    bits = 0
    values = list(result.x or ())
    if result.value is not None:
        values.append(result.value)
    for v in values:
        bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return {"pivots": result.pivots, "bits": bits, "cols": args[0], "rows": len(args[1])}


def _augmented_counts(args, result):
    return {"nodes": result.nodes, "outer": result.convergence != "converged"}


def _maxent_counts(args, result):
    return {"iterations": result.iterations}


def _sweep_counts(args, result):
    return {"sweeps": result[1]}


# (defining module, function, reader of counts from (args, result))
WRAPPED = (
    ("simplex", "solve_lp", _lp_counts),
    ("entailment", "probability_bounds", None),
    ("entailment", "entail_conditional", None),
    ("entailment", "feasible", None),
    ("entailment", "feasible_subset", None),
    ("kb", "kb_rows", None),
    ("kb", "parse_kb", None),
    ("kb", "diagnose_inconsistency", None),
    ("sentences", "build_world_space", None),
    ("assumptions", "entail_augmented", _augmented_counts),
    ("maxent", "solve_maxent", _maxent_counts),
    ("maxent", "precision_report", None),
    ("dempster", "envelope_from_entailment", None),
    ("dempster", "mass_from_bel", None),
    ("propagation", "propagate_fixpoint", _sweep_counts),
    ("propagation", "entailed_intervals", None),
)


class Tracer:
    """Records spans while enabled; the package is untouched while disabled."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "cpibounds" or name.startswith("cpibounds.")
        }
        for home, fname, counts in WRAPPED:
            original = getattr(modules[f"cpibounds.{home}"], fname)
            for mname, mod in modules.items():
                if getattr(mod, fname, None) is original:
                    site = mname.rpartition(".")[2]
                    wrapped = self.wrap(f"{home}.{fname}", site, original, counts)
                    self._patches.append((mod, fname, original, wrapped))

    def wrap(self, func: str, site: str, call, counts=None):
        """``call`` with a span recorded around every invocation."""
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [func, site, self.request, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = call(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counts is not None:
                span[COUNTS] = counts(args, result)
            return result

        return wrapper

    def enable(self) -> None:
        for mod, fname, _, wrapped in self._patches:
            setattr(mod, fname, wrapped)

    def disable(self) -> None:
        for mod, fname, original, _ in self._patches:
            setattr(mod, fname, original)

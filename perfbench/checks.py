"""Correctness checks of each request's output, independent of ``simplex``.

Every LP endpoint is re-solved with scipy's HiGHS on the ``kb_rows``
problem; every interval must hold the planted value, which the
generator computed from its own evaluator.  The exact vertex oracle is
too slow to call per request, so it is not used here.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from cpibounds import build_world_space, linearize, parse_kb

import gen

TOL = 1e-7  # HiGHS against exact rational endpoints
MAXENT_TOL = 1e-6  # maxent values are floats from a 1e-8 KKT residual


class LpModel:
    """The instance's linearized axioms over its worlds, solved by HiGHS."""

    def __init__(self, inst: gen.Instance):
        kb = parse_kb(inst.text)
        ws = build_world_space(kb.atoms, kb.background)
        self.worlds = [dict(zip(kb.atoms, w.values)) for w in ws.worlds]
        self.n = len(self.worlds)
        # rows of each axiom in <= 0 form; linearize emits no equalities
        self.axiom_rows = []
        for axiom in kb.axioms:
            rows = []
            for row in linearize(axiom, ws):
                sign = -1.0 if row.rel == ">=" else 1.0
                dense = np.zeros(self.n + 1)
                for j, c in row.coeffs.items():
                    dense[j] = sign * float(c)
                rows.append(dense)
            self.axiom_rows.append(rows)

    def mask(self, s) -> np.ndarray:
        out = np.zeros(self.n + 1)
        for j, w in enumerate(self.worlds):
            if s is None or gen.evaluate(s, w):
                out[j] = 1.0
        return out

    def _solve(self, objective, given, axioms):
        """Charnes-Cooper form: y over worlds, then the scale t."""
        rows = [r for k in axioms for r in self.axiom_rows[k]]
        scale = np.ones(self.n + 1)
        scale[self.n] = -1.0
        return linprog(
            objective,
            A_ub=np.array(rows) if rows else None,
            b_ub=np.zeros(len(rows)) if rows else None,
            A_eq=np.array([self.mask(given), scale]),
            b_eq=np.array([1.0, 0.0]),
            bounds=(0, None),
            method="highs",
        )

    def interval(self, target, given=None):
        """(min, max) of P(target | given) under all axioms."""
        axioms = range(len(self.axiom_rows))
        both = self.mask(target) * self.mask(given)
        low = self._solve(both, given, axioms)
        high = self._solve(-both, given, axioms)
        if low.status != 0 or high.status != 0:
            return None
        return low.fun, -high.fun

    def feasible(self, axioms) -> bool:
        return self._solve(np.zeros(self.n + 1), None, list(axioms)).status == 0


def fraction(doc) -> Fraction:
    return Fraction(doc["num"], doc["den"])


def _load(out: str, failures: list):
    try:
        return json.loads(out)
    except ValueError:
        failures.append("output is not JSON")
        return None


def check_intervals(inst, entries, model, failures, ratios):
    if len(entries) != len(inst.queries):
        failures.append(f"{len(entries)} answers for {len(inst.queries)} queries")
        return
    for k, (entry, (target, given)) in enumerate(zip(entries, inst.queries)):
        lo, hi = fraction(entry["lower"]), fraction(entry["upper"])
        planted = gen.probability(inst.planted, inst.atoms, target, given)
        if not lo <= planted <= hi:
            failures.append(f"query {k}: planted {planted} outside [{lo}, {hi}]")
        ref = model.interval(target, given)
        if ref is None:
            failures.append(f"query {k}: HiGHS found no optimum")
            continue
        if entry.get("method") == "branch-and-bound":
            if float(lo) < ref[0] - TOL or float(hi) > ref[1] + TOL:
                failures.append(
                    f"query {k}: B&B [{float(lo)}, {float(hi)}] outside LP {ref}"
                )
            ref_width = ref[1] - ref[0]
            ratios.append(float(hi - lo) / ref_width if ref_width > TOL else 1.0)
        elif abs(float(lo) - ref[0]) > TOL or abs(float(hi) - ref[1]) > TOL:
            failures.append(f"query {k}: [{float(lo)}, {float(hi)}] but HiGHS {ref}")
        value = entry.get("maxent")
        if value is not None and not (
            float(lo) - MAXENT_TOL <= value <= float(hi) + MAXENT_TOL
        ):
            failures.append(f"query {k}: maxent {value} outside [{lo}, {hi}]")


def _frame_sentence(names):
    s = ("atom", names[0])
    for name in names[1:]:
        s = ("or", s, ("atom", name))
    return s


def check_ds(inst, doc, model, failures):
    frame = list(inst.frame)
    if doc.get("frame", frame) != frame:
        failures.append(f"frame {doc.get('frame')} is not {frame}")
        return
    lower = {}
    for mask in range(1, 1 << len(frame)):
        names = [e for i, e in enumerate(frame) if mask >> i & 1]
        s = _frame_sentence(names)
        ref = model.interval(s)
        lower[mask] = ref[0] if ref else None
        planted = gen.probability(inst.planted, inst.atoms, s)
        if "envelope" in doc:
            got = fraction(doc["envelope"][mask])
            if got > planted:
                failures.append(f"lower({names}) = {got} above planted {planted}")
            if ref is None or abs(float(got) - ref[0]) > TOL:
                failures.append(f"lower({names}) = {got} but HiGHS {ref}")
    if "representable" not in doc:
        return
    if None in lower.values():
        failures.append("HiGHS found no optimum for some subset")
        return
    # Moebius inversion of the HiGHS envelope decides representability
    moebius = {}
    for mask in range(1, 1 << len(frame)):
        sub, total = mask, 0.0
        while sub:
            sign = (-1) ** (bin(mask).count("1") - bin(sub).count("1"))
            total += sign * lower[sub]
            sub = (sub - 1) & mask
        moebius[mask] = total
    if doc["representable"]:
        masses = {
            sum(1 << frame.index(n) for n in m["subset"]): Fraction(m["num"], m["den"])
            for m in doc["mass"]
        }
        for mask, ref in moebius.items():
            if abs(float(masses.get(mask, 0)) - ref) > 1e-6:
                failures.append(f"mass on {mask:b} is {masses.get(mask, 0)}, HiGHS {ref}")
    else:
        witness = doc["witness"]
        value = Fraction(witness["num"], witness["den"])
        mask = sum(1 << frame.index(n) for n in witness["subset"])
        if value >= 0 or abs(float(value) - moebius[mask]) > 1e-6:
            failures.append(f"witness m({witness['subset']}) = {value}, HiGHS {moebius[mask]}")


def tracked_sentences(inst):
    """The propagation table's sentence order: axioms first, then queries."""
    tracked = []
    for consequent, antecedent, _, _ in inst.axioms:
        tracked += [consequent] + ([antecedent] if antecedent is not None else [])
    for target, given in inst.queries:
        tracked += [target] + ([given] if given is not None else [])
    return list(dict.fromkeys(tracked))


def check_propagate(inst, doc, failures):
    if doc.get("verdict") == "unsound":
        failures.append("sound rules judged unsound")
    tracked = tracked_sentences(inst)
    if len(doc["queries"]) != len(tracked):
        failures.append(f"{len(doc['queries'])} rows for {len(tracked)} tracked sentences")
        return
    for entry, s in zip(doc["queries"], tracked):
        if entry.get("verdict") == "unsound":
            failures.append(f"{entry['query']} judged unsound")
        planted = gen.probability(inst.planted, inst.atoms, s)
        lo, hi = fraction(entry["lower"]), fraction(entry["upper"])
        if not lo <= planted <= hi:
            failures.append(f"{entry['query']}: planted {planted} outside [{lo}, {hi}]")


def check_diagnosis(inst, doc, model, failures):
    if doc.get("feasible") is not False:
        failures.append("infeasible KB reported feasible")
        return
    members = [i - 1 for i in doc.get("diagnosis") or []]
    if not members:
        failures.append("no diagnosis")
        return
    if model.feasible(members):
        failures.append(f"diagnosis {doc['diagnosis']} is feasible")
    for k in members:
        if not model.feasible([m for m in members if m != k]):
            failures.append(f"diagnosis {doc['diagnosis']} stays infeasible without {k + 1}")


def check(inst: gen.Instance, code, out: str) -> tuple[list[str], list[float]]:
    """Failure messages for one request's exit code and output, and the
    width of each B&B interval as a share of the axioms-only LP width."""
    failures: list[str] = []
    ratios: list[float] = []
    if code != inst.expect_exit:
        failures.append(f"exit code {code}, expected {inst.expect_exit}")
        return failures, ratios
    doc = _load(out, failures)
    if doc is None:
        return failures, ratios
    if inst.kind == "propagate":
        check_propagate(inst, doc, failures)
        return failures, ratios
    model = LpModel(inst)
    if inst.kind in gen.INTERVAL_KINDS:
        if doc.get("feasible") is not True:
            failures.append("feasible KB reported infeasible")
        check_intervals(inst, doc["queries"], model, failures, ratios)
    elif inst.kind.startswith("ds-"):
        check_ds(inst, doc, model, failures)
    elif inst.kind == "check":
        check_diagnosis(inst, doc, model, failures)
    return failures, ratios

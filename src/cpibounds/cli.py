"""Command-line frontend.

One binary with subcommands sharing the knowledge-base loader:

* ``entail``      answer every query (branch-and-bound when assumptions exist)
* ``check``       feasibility only, with a minimal conflict diagnosis
* ``propagate``   local interval propagation, optionally judged against LP
* ``maxent``      maximum-entropy point values next to entailed intervals
* ``ds``          Dempster-Shafer: combine / envelope / representable
* ``oracle``      hidden: brute-force oracles for auditing

Exit codes are a stable contract: 0 success, 1 usage or parse problems,
2 inconsistent knowledge base, 3 total evidential conflict.  Exact
rationals are the source of truth everywhere; decimals are renderings
(round half-to-even, default 6 places).  Output is deterministic:
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction

from .assumptions import DEFAULT_NODE_CAP, DEFAULT_TOLERANCE, entail_augmented
from .dempster import (
    combine_evidence,
    dempster_combine,
    envelope_from_entailment,
    frame_mapping_from_kb,
    mass_from_bel,
    mass_functions_from_kb,
    MassFunction,
    NotRepresentable,
)
from .entailment import entail_conditional, feasible
from .errors import (
    CpiboundsError,
    InfeasibleAugmentedError,
    InfeasibleError,
    TotalConflictError,
)
from .kb import KnowledgeBase, diagnose_inconsistency, p_term_text, parse_kb
from .maxent import precision_report
from .oracle import GridSearchConfig, grid_bounds, vertex_bounds
from .propagation import (
    RuleSet,
    entailed_intervals,
    judge_soundness_completeness,
    propagate_fixpoint,
)
from .sentences import DEFAULT_ATOM_CAP, TRUE, build_world_space

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2
EXIT_TOTAL_CONFLICT = 3


def decimal_str(value: Fraction, places: int = 6) -> str:
    """Exact rational rendered as a decimal, round half-to-even."""
    with localcontext() as ctx:
        ctx.prec = places + 30
        d = Decimal(value.numerator) / Decimal(value.denominator)
        q = d.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN)
    text = format(q.normalize(), "f")
    return text


def rational_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def query_text(target, given=TRUE) -> str:
    return p_term_text(target, given)


def load_kb(path: str) -> KnowledgeBase:
    if path == "-":
        return parse_kb(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_kb(handle.read())


def _interval_text(interval, places: int) -> str:
    lo, hi = interval.lower, interval.upper
    return (
        f"[{decimal_str(lo, places)}, {decimal_str(hi, places)}]"
        f" (exact {lo}, {hi})"
    )


def _emit_json(document: dict) -> None:
    print(json.dumps(document, indent=2))


def _infeasible_exit(kb, ws, args) -> int:
    diagnosis = [i + 1 for i in diagnose_inconsistency(kb, ws)]
    if args.json:
        _emit_json(
            {
                "queries": [],
                "feasible": False,
                "diagnosis": diagnosis,
                "stats": {"lp_pivots": 0, "bb_nodes": 0, "sweeps": 0},
            }
        )
    else:
        print("inconsistent: no probability distribution satisfies the axioms")
        listed = ", ".join(f"axiom {i}" for i in diagnosis)
        print(f"minimal conflicting subset: {listed}")
        for i in diagnosis:
            print(f"  axiom {i}: {kb.axioms[i - 1]}")
    return EXIT_INCONSISTENT


def _solve_query(kb, ws, target, given, args):
    if kb.assumptions:
        res = entail_augmented(
            kb, ws, target, given,
            tolerance=Fraction(args.tolerance),
            node_cap=args.node_cap,
        )
        return {
            "result": res.result,
            "method": "branch-and-bound",
            "nodes": res.nodes,
            "convergence": res.convergence,
        }
    result = entail_conditional(kb, ws, target, given)
    return {"result": result, "method": "lp", "nodes": 0, "convergence": "converged"}


def cmd_entail(args) -> int:
    kb = load_kb(args.kb)
    ws = build_world_space(kb.atoms, kb.background, atom_cap=args.atom_cap)
    if not feasible(kb, ws):
        return _infeasible_exit(kb, ws, args)
    queries = list(kb.queries)
    solved = [_solve_query(kb, ws, t, g, args) for t, g in queries]

    maxent_values = None
    if args.maxent and queries:
        # B&B intervals are not the axioms-only ones the report classifies
        results = None if kb.assumptions else [s["result"] for s in solved]
        report = precision_report(kb, ws, queries, results=results)
        maxent_values = {
            (e.target, e.given): (e.maxent_value, e.classification)
            for e in report.entries
        }

    total_pivots = sum(s["result"].pivots for s in solved)
    total_nodes = sum(s["nodes"] for s in solved)
    if args.json:
        out_queries = []
        for (target, given), s in zip(queries, solved):
            result = s["result"]
            entry = {
                "query": query_text(target, given),
                "lower": rational_json(result.interval.lower),
                "upper": rational_json(result.interval.upper),
                "status": result.status,
                "method": s["method"],
                "lower_attained": result.lower_attained,
                "upper_attained": result.upper_attained,
            }
            if maxent_values is not None:
                value, classification = maxent_values[(target, given)]
                entry["maxent"] = value
                entry["classification"] = classification
            out_queries.append(entry)
        _emit_json(
            {
                "queries": out_queries,
                "feasible": True,
                "diagnosis": None,
                "stats": {
                    "lp_pivots": total_pivots,
                    "bb_nodes": total_nodes,
                    "sweeps": 0,
                },
            }
        )
        return EXIT_OK
    for (target, given), s in zip(queries, solved):
        result = s["result"]
        line = f"{query_text(target, given)}: {_interval_text(result.interval, args.places)}"
        extras = [f"method={s['method']}"]
        if result.status != "determined":
            extras.append(f"status={result.status}")
        if s["method"] == "branch-and-bound":
            extras.append(f"nodes={s['nodes']}")
            if s["convergence"] != "converged":
                extras.append("outer-bound")
        if maxent_values is not None:
            value, classification = maxent_values[(target, given)]
            rendered = "-" if value is None else f"{value:.6f}"
            extras.append(f"maxent={rendered} [{classification}]")
        print(line + "  " + " ".join(extras))
    print(f"stats: lp_pivots={total_pivots} bb_nodes={total_nodes}")
    return EXIT_OK


def cmd_check(args) -> int:
    kb = load_kb(args.kb)
    ws = build_world_space(kb.atoms, kb.background, atom_cap=args.atom_cap)
    if not feasible(kb, ws):
        return _infeasible_exit(kb, ws, args)
    if args.json:
        _emit_json(
            {
                "queries": [],
                "feasible": True,
                "diagnosis": None,
                "stats": {"lp_pivots": 0, "bb_nodes": 0, "sweeps": 0},
            }
        )
    else:
        print(f"feasible: {len(kb.axioms)} axioms over {len(ws)} worlds")
    return EXIT_OK


def _tracked_sentences(kb: KnowledgeBase):
    tracked = []
    for ax in kb.axioms:
        tracked.append(ax.consequent)
        if ax.antecedent != TRUE:
            tracked.append(ax.antecedent)
    for target, given in kb.queries:
        tracked.append(target)
        if given != TRUE:
            tracked.append(given)
    return list(dict.fromkeys(tracked))


def cmd_propagate(args) -> int:
    kb = load_kb(args.kb)
    ws = build_world_space(kb.atoms, kb.background, atom_cap=args.atom_cap)
    if not feasible(kb, ws):
        return _infeasible_exit(kb, ws, args)
    if args.rules:
        names = [r.strip() for r in args.rules.split(",") if r.strip()]
        flags = {f: False for f in RuleSet.__dataclass_fields__}
        for name in names:
            if name not in flags:
                print(f"unknown rule family {name!r}", file=sys.stderr)
                return EXIT_USAGE
            flags[name] = True
        rules = RuleSet(**flags)
    else:
        rules = RuleSet.sound()
    tracked = _tracked_sentences(kb)
    table, sweeps = propagate_fixpoint(kb, rules, tracked)
    judged = None
    if args.judge:
        judged = judge_soundness_completeness(
            table, entailed_intervals(kb, ws, tracked)
        )
    if args.json:
        entries = []
        for s, interval in table.items():
            entry = {
                "query": query_text(s),
                "lower": rational_json(interval.lower),
                "upper": rational_json(interval.upper),
                "status": "determined",
                "method": "propagation",
            }
            if judged is not None:
                entry["verdict"] = judged.verdicts[s]
            entries.append(entry)
        doc = {
            "queries": entries,
            "feasible": True,
            "diagnosis": None,
            "stats": {"lp_pivots": 0, "bb_nodes": 0, "sweeps": sweeps},
        }
        if judged is not None:
            doc["verdict"] = judged.aggregate
        _emit_json(doc)
        return EXIT_OK
    for s, interval in table.items():
        line = f"{query_text(s)}: {_interval_text(interval, args.places)}"
        if judged is not None:
            line += f"  verdict={judged.verdicts[s]}"
        print(line)
    print(f"stats: sweeps={sweeps}")
    if judged is not None:
        print(f"aggregate verdict: {judged.aggregate}")
    return EXIT_OK


def cmd_maxent(args) -> int:
    kb = load_kb(args.kb)
    ws = build_world_space(kb.atoms, kb.background, atom_cap=args.atom_cap)
    if not feasible(kb, ws):
        return _infeasible_exit(kb, ws, args)
    report = precision_report(kb, ws)
    solution = report.solution
    if args.json:
        entries = []
        for e in report.entries:
            entries.append(
                {
                    "query": query_text(e.target, e.given),
                    "lower": rational_json(e.interval.lower),
                    "upper": rational_json(e.interval.upper),
                    "status": e.status,
                    "method": "maxent",
                    "maxent": e.maxent_value,
                    "classification": e.classification,
                }
            )
        _emit_json(
            {
                "queries": entries,
                "feasible": True,
                "diagnosis": None,
                "stats": {
                    "lp_pivots": 0,
                    "bb_nodes": 0,
                    "sweeps": solution.iterations,
                },
                "entropy": solution.entropy,
                "kkt_residual": solution.kkt_residual,
                "converged": solution.converged,
            }
        )
        return EXIT_OK
    for e in report.entries:
        value = "-" if e.maxent_value is None else f"{e.maxent_value:.6f}"
        print(
            f"{query_text(e.target, e.given)}: {_interval_text(e.interval, args.places)}"
            f"  maxent={value} [{e.classification}]"
        )
    print(
        f"entropy={solution.entropy:.6f} kkt_residual={solution.kkt_residual:.2e}"
        f" iterations={solution.iterations} converged={solution.converged}"
    )
    return EXIT_OK


def _print_mass(m: MassFunction, places: int) -> None:
    for mask, value in m.focal():
        names = ", ".join(m.frame.names_of(mask))
        print(f"m({{{names}}}) = {value} ({decimal_str(value, places)})")


def cmd_ds(args) -> int:
    kb = load_kb(args.kb)
    if args.action == "combine":
        sources = mass_functions_from_kb(kb)
        if not sources:
            print("no mass sources declared", file=sys.stderr)
            return EXIT_USAGE
        chosen = args.sources or list(sources)
        missing = [s for s in chosen if s not in sources]
        if missing:
            print(f"unknown mass sources: {missing}", file=sys.stderr)
            return EXIT_USAGE
        masses = [sources[name] for name in chosen]
        conflicts = []
        combined = masses[0]
        for m in masses[1:]:
            combined, kappa = dempster_combine(combined, m)
            conflicts.append(kappa)
        if args.json:
            _emit_json(
                {
                    "frame": list(combined.frame.elements),
                    "mass": [
                        {
                            "subset": list(combined.frame.names_of(mask)),
                            "num": value.numerator,
                            "den": value.denominator,
                        }
                        for mask, value in combined.focal()
                    ],
                    "conflict": [rational_json(k) for k in conflicts],
                }
            )
        else:
            _print_mass(combined, args.places)
            rendered = ", ".join(str(k) for k in conflicts) or "0"
            print(f"conflict: {rendered}")
        return EXIT_OK

    ws = build_world_space(kb.atoms, kb.background, atom_cap=args.atom_cap)
    envelope = envelope_from_entailment(kb, ws, frame_mapping_from_kb(kb))
    if args.action == "envelope":
        if args.json:
            _emit_json(
                {
                    "frame": list(envelope.frame.elements),
                    "envelope": [
                        {
                            "subset": list(envelope.frame.names_of(mask)),
                            "num": envelope.lower(mask).numerator,
                            "den": envelope.lower(mask).denominator,
                        }
                        for mask in envelope.frame.subsets()
                    ],
                }
            )
        else:
            for mask in envelope.frame.subsets():
                names = ", ".join(envelope.frame.names_of(mask))
                print(f"lower({{{names}}}) = {envelope.lower(mask)}")
        return EXIT_OK
    # representable
    verdict = mass_from_bel(envelope)
    if isinstance(verdict, NotRepresentable):
        if args.json:
            _emit_json(
                {
                    "representable": False,
                    "witness": {
                        "subset": list(verdict.subset_names),
                        "num": verdict.mass.numerator,
                        "den": verdict.mass.denominator,
                    },
                }
            )
        else:
            names = ", ".join(verdict.subset_names)
            print(f"NOT representable: m({{{names}}}) = {verdict.mass}")
        return EXIT_OK
    if args.json:
        _emit_json(
            {
                "representable": True,
                "mass": [
                    {
                        "subset": list(verdict.frame.names_of(mask)),
                        "num": value.numerator,
                        "den": value.denominator,
                    }
                    for mask, value in verdict.focal()
                ],
            }
        )
    else:
        print("representable as a mass function:")
        _print_mass(verdict, args.places)
    return EXIT_OK


def cmd_oracle(args) -> int:
    kb = load_kb(args.kb)
    ws = build_world_space(kb.atoms, kb.background, atom_cap=args.atom_cap)
    for target, given in kb.queries:
        if args.method == "vertex":
            interval = vertex_bounds(kb, ws, target, given)
        else:
            interval = grid_bounds(
                kb, ws, target, given,
                cfg=GridSearchConfig(step=Fraction(args.step)),
            )
        rendered = "no feasible grid point" if interval is None else str(interval)
        print(f"{query_text(target, given)}: {rendered}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Bad arguments exit EXIT_USAGE; argparse's 2 means an inconsistent KB here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cpibounds",
        description="entailed probability-interval bounds over possible worlds",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{entail,check,propagate,maxent,ds}",
    )

    def common(p):
        p.add_argument("kb", help="knowledge-base file, or - for stdin")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--atom-cap", type=int, default=DEFAULT_ATOM_CAP,
            help="max atoms to enumerate (default %(default)s)",
        )
        p.add_argument(
            "--places", type=int, default=6,
            help="decimal places in rendered output (default %(default)s)",
        )

    p = sub.add_parser("entail", help="answer every query in the file")
    common(p)
    p.add_argument("--maxent", action="store_true", help="add maximum-entropy columns")
    p.add_argument(
        "--tolerance", default=str(DEFAULT_TOLERANCE),
        help="branch-and-bound convergence tolerance (default %(default)s)",
    )
    p.add_argument(
        "--node-cap", type=int, default=DEFAULT_NODE_CAP,
        help="branch-and-bound node cap per direction (default %(default)s)",
    )
    p.set_defaults(func=cmd_entail)

    p = sub.add_parser("check", help="feasibility check with conflict diagnosis")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("propagate", help="local interval propagation")
    common(p)
    p.add_argument(
        "--rules", "--propagate", dest="rules", default="",
        help="comma-separated rule families (default: all sound rules)",
    )
    p.add_argument(
        "--judge", action="store_true",
        help="compare propagated intervals against LP entailment",
    )
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("maxent", help="maximum-entropy point values per query")
    common(p)
    p.set_defaults(func=cmd_maxent)

    p = sub.add_parser("ds", help="Dempster-Shafer operations")
    p.add_argument("action", choices=["combine", "envelope", "representable"])
    common(p)
    p.add_argument("sources", nargs="*", help="mass sources for combine")
    p.set_defaults(func=cmd_ds)

    p = sub.add_parser("oracle")  # hidden from help on purpose: audit tool
    common(p)
    p.add_argument("--method", choices=["grid", "vertex"], default="vertex")
    p.add_argument("--step", default="1/200", help="grid resolution")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InfeasibleError, InfeasibleAugmentedError) as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except TotalConflictError as exc:
        print(f"total conflict: {exc}", file=sys.stderr)
        return EXIT_TOTAL_CONFLICT
    except (CpiboundsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

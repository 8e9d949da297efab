"""Command-line frontend.

One binary with subcommands sharing one front door, ``_open``, which
loads the knowledge base, builds its world space and checks feasibility:

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
    envelope_from_entailment,
    frame_mapping_from_kb,
    mass_from_bel,
    mass_functions_from_kb,
    MassFunction,
    NotRepresentable,
)
from .entailment import QueryResult, entail_conditional, feasible
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
from .simplex import counting

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
    return format(q.normalize(), "f")


def rational_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def load_kb(path: str) -> KnowledgeBase:
    if path == "-":
        return parse_kb(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_kb(handle.read())


class _Inconsistent(Exception):
    """The axioms admit no distribution; ``main`` prints the diagnosis."""

    def __init__(self, kb: KnowledgeBase, diagnosis: list[int]):
        self.kb = kb
        self.diagnosis = diagnosis  # 1-based axiom numbers


def _require_feasible(kb, ws) -> None:
    if not feasible(kb, ws):
        raise _Inconsistent(kb, [i + 1 for i in diagnose_inconsistency(kb, ws)])


def _open(args, gate: bool = True):
    """The front door: load the KB and build its world space.

    With ``gate``, infeasible axioms raise ``_Inconsistent`` to ``main``.
    """
    kb = load_kb(args.kb)
    ws = build_world_space(kb.atoms, kb.background, atom_cap=args.atom_cap)
    if gate:
        _require_feasible(kb, ws)
    return kb, ws


def _emit_json(document: dict) -> None:
    print(json.dumps(document, indent=2))


def _emit_document(entries, stats, diagnosis=None, nodes=0, sweeps=0, **extra):
    """The query-answering commands' JSON document; ``extra`` follows ``stats``."""
    head = {"queries": entries, "feasible": diagnosis is None, "diagnosis": diagnosis}
    counts = {"lp_pivots": stats.pivots, "bb_nodes": nodes, "sweeps": sweeps}
    _emit_json({**head, "stats": counts, **extra})


def _entry(target, given, interval, status, method, **extra) -> dict:
    return {
        "query": p_term_text(target, given),
        "lower": rational_json(interval.lower),
        "upper": rational_json(interval.upper),
        "status": status,
        "method": method,
        **extra,
    }


def _interval_line(target, given, interval, places: int) -> str:
    lo, hi = interval.lower, interval.upper
    return (
        f"{p_term_text(target, given)}:"
        f" [{decimal_str(lo, places)}, {decimal_str(hi, places)}]"
        f" (exact {lo}, {hi})"
    )


def _subset_json(names, value: Fraction) -> dict:
    return {"subset": list(names), "num": value.numerator, "den": value.denominator}


def _mass_json(m: MassFunction) -> list[dict]:
    return [_subset_json(m.frame.names_of(mask), value) for mask, value in m.focal()]


def _print_diagnosis(exc: _Inconsistent, as_json: bool, stats) -> None:
    if as_json:
        _emit_document([], stats, diagnosis=exc.diagnosis)
        return
    print("inconsistent: no probability distribution satisfies the axioms")
    listed = ", ".join(f"axiom {i}" for i in exc.diagnosis)
    print(f"minimal conflicting subset: {listed}")
    for i in exc.diagnosis:
        print(f"  axiom {i}: {exc.kb.axioms[i - 1]}")


def _solve_query(kb, ws, target, given, args) -> QueryResult:
    # entail_augmented would delegate too, but perfbench counts each call as a B&B search
    if kb.assumptions:
        return entail_augmented(
            kb, ws, target, given,
            tolerance=args.tolerance,
            node_cap=args.node_cap,
        )
    return entail_conditional(kb, ws, target, given)


def _maxent_text(e, places: int) -> str:
    value = "-" if e.maxent_value is None else f"{e.maxent_value:.{places}f}"
    return f"maxent={value} [{e.classification}]"


def cmd_entail(args, stats) -> int:
    kb, ws = _open(args)
    queries = list(kb.queries)
    solved = [_solve_query(kb, ws, t, g, args) for t, g in queries]
    method = "branch-and-bound" if kb.assumptions else "lp"
    maxent = [None] * len(queries)
    if args.maxent and queries:
        # B&B intervals are not the axioms-only ones the report classifies
        results = None if kb.assumptions else solved
        maxent = precision_report(kb, ws, results=results).entries

    total_nodes = sum(result.nodes for result in solved)
    entries = []
    for (target, given), result, e in zip(queries, solved, maxent):
        if args.json:
            extra = {
                "lower_attained": result.lower_attained,
                "upper_attained": result.upper_attained,
            }
            if e is not None:
                extra.update(maxent=e.maxent_value, classification=e.classification)
            entries.append(
                _entry(target, given, result.interval, result.status, method, **extra)
            )
            continue
        extras = [f"method={method}"]
        if result.status != "determined":
            extras.append(f"status={result.status}")
        if kb.assumptions:
            extras.append(f"nodes={result.nodes}")
            if result.convergence != "converged":
                extras.append("outer-bound")
        if e is not None:
            extras.append(_maxent_text(e, args.places))
        line = _interval_line(target, given, result.interval, args.places)
        print(line + "  " + " ".join(extras))
    if args.json:
        _emit_document(entries, stats, nodes=total_nodes)
    else:
        print(f"stats: lp_pivots={stats.pivots} bb_nodes={total_nodes}")
    return EXIT_OK


def cmd_check(args, stats) -> int:
    kb, ws = _open(args)
    if args.json:
        _emit_document([], stats)
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


def cmd_propagate(args, stats) -> int:
    kb, ws = _open(args)
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
        judged = judge_soundness_completeness(table, entailed_intervals(kb, ws, tracked))
    if args.json:
        entries = []
        for s, interval in table.items():
            extra = {} if judged is None else {"verdict": judged.verdicts[s]}
            entries.append(
                _entry(s, TRUE, interval, "determined", "propagation", **extra)
            )
        extra = {} if judged is None else {"verdict": judged.aggregate}
        _emit_document(entries, stats, sweeps=sweeps, **extra)
        return EXIT_OK
    for s, interval in table.items():
        line = _interval_line(s, TRUE, interval, args.places)
        if judged is not None:
            line += f"  verdict={judged.verdicts[s]}"
        print(line)
    print(f"stats: sweeps={sweeps}")
    if judged is not None:
        print(f"aggregate verdict: {judged.aggregate}")
    return EXIT_OK


def cmd_maxent(args, stats) -> int:
    kb, ws = _open(args)
    report = precision_report(kb, ws)
    solution = report.solution
    if args.json:
        entries = [
            _entry(
                e.target, e.given, e.interval, e.status, "maxent",
                maxent=e.maxent_value, classification=e.classification,
            )
            for e in report.entries
        ]
        _emit_document(
            entries, stats,
            entropy=solution.entropy,
            kkt_residual=solution.kkt_residual,
            iterations=solution.iterations,
            converged=solution.converged,
        )
        return EXIT_OK
    for e in report.entries:
        line = _interval_line(e.target, e.given, e.interval, args.places)
        print(line + "  " + _maxent_text(e, args.places))
    print(
        f"entropy={solution.entropy:.{args.places}f}"
        f" kkt_residual={solution.kkt_residual:.2e}"
        f" iterations={solution.iterations} converged={solution.converged}"
    )
    return EXIT_OK


def _print_mass(m: MassFunction, places: int) -> None:
    for mask, value in m.focal():
        names = ", ".join(m.frame.names_of(mask))
        print(f"m({{{names}}}) = {value} ({decimal_str(value, places)})")


def cmd_ds(args, stats) -> int:
    if args.action == "combine":
        sources = mass_functions_from_kb(load_kb(args.kb))
        if not sources:
            print("no mass sources declared", file=sys.stderr)
            return EXIT_USAGE
        chosen = args.sources or list(sources)
        missing = [s for s in chosen if s not in sources]
        if missing:
            print(f"unknown mass sources: {missing}", file=sys.stderr)
            return EXIT_USAGE
        combined, conflicts = combine_evidence(sources[name] for name in chosen)
        if args.json:
            doc = {"frame": list(combined.frame.elements), "mass": _mass_json(combined)}
            _emit_json({**doc, "conflict": [rational_json(k) for k in conflicts]})
        else:
            _print_mass(combined, args.places)
            rendered = ", ".join(str(k) for k in conflicts) or "0"
            print(f"conflict: {rendered}")
        return EXIT_OK

    if args.sources:
        print(f"ds {args.action} takes no mass sources, got {args.sources}", file=sys.stderr)
        return EXIT_USAGE
    kb, ws = _open(args, gate=False)
    mapping = frame_mapping_from_kb(kb)  # no frame is a usage error, consistent or not
    _require_feasible(kb, ws)
    envelope = envelope_from_entailment(kb, ws, mapping)
    frame = envelope.frame
    if args.action == "envelope":
        if args.json:
            lower = [
                _subset_json(frame.names_of(mask), envelope.lower(mask))
                for mask in frame.subsets()
            ]
            _emit_json({"frame": list(frame.elements), "envelope": lower})
        else:
            for mask in frame.subsets():
                names = ", ".join(frame.names_of(mask))
                print(f"lower({{{names}}}) = {envelope.lower(mask)}")
        return EXIT_OK
    verdict = mass_from_bel(envelope)
    representable = not isinstance(verdict, NotRepresentable)
    if args.json:
        if representable:
            _emit_json({"representable": True, "mass": _mass_json(verdict)})
        else:
            witness = _subset_json(verdict.subset_names, verdict.mass)
            _emit_json({"representable": False, "witness": witness})
    elif representable:
        print("representable as a mass function:")
        _print_mass(verdict, args.places)
    else:
        names = ", ".join(verdict.subset_names)
        print(f"NOT representable: m({{{names}}}) = {verdict.mass}")
    return EXIT_OK


def cmd_oracle(args, stats) -> int:
    kb, ws = _open(args, gate=False)  # the oracles never touch the simplex
    for target, given in kb.queries:
        if args.method == "vertex":
            interval = vertex_bounds(kb, ws, target, given)
        else:
            interval = grid_bounds(
                kb, ws, target, given,
                cfg=GridSearchConfig(step=args.step),
            )
        rendered = "no feasible grid point" if interval is None else str(interval)
        print(f"{p_term_text(target, given)}: {rendered}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Bad arguments exit EXIT_USAGE; argparse's 2 means an inconsistent KB here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(kind, low):
    """An argparse type: a ``kind`` (int or Fraction) no smaller than ``low``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ZeroDivisionError:
            raise ValueError(text) from None  # argparse reports an invalid value
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type of an invalid value
    return parse


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
            "--atom-cap", type=_at_least(int, 1), default=DEFAULT_ATOM_CAP,
            help="max atoms to enumerate (default %(default)s)",
        )
        p.add_argument(
            "--places", type=_at_least(int, 0), default=6,
            help="decimal places in rendered output (default %(default)s)",
        )

    p = sub.add_parser("entail", help="answer every query in the file")
    common(p)
    p.add_argument("--maxent", action="store_true", help="add maximum-entropy columns")
    p.add_argument(
        "--tolerance", type=_at_least(Fraction, 0), default=str(DEFAULT_TOLERANCE),
        help="branch-and-bound convergence tolerance (default %(default)s)",
    )
    p.add_argument(
        "--node-cap", type=_at_least(int, 1), default=DEFAULT_NODE_CAP,
        help="branch-and-bound node cap per direction (default %(default)s)",
    )
    p.set_defaults(func=cmd_entail)

    p = sub.add_parser("check", help="feasibility check with conflict diagnosis")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("propagate", help="local interval propagation")
    common(p)
    p.add_argument(
        "--rules", default="",
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
    p.add_argument(
        "--step", type=_at_least(Fraction, 0), default="1/200", help="grid resolution"
    )
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with counting() as stats:  # every LP the command runs, diagnosis included
        try:
            return args.func(args, stats)
        except _Inconsistent as exc:
            _print_diagnosis(exc, args.json, stats)
            return EXIT_INCONSISTENT
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

"""Knowledge bases: interval axioms, augmenting assumptions, and the text DSL.

A knowledge base holds two kinds of probabilistic knowledge over one
possible-worlds space:

* interval axioms ``q <= P(A | B) <= r`` on sentence probabilities, which
  linearize exactly into inequalities over world probabilities, and
* augmenting assumptions (conditional independence, correlation signs),
  which are bilinear and handled by :mod:`cpibounds.assumptions`.

DSL, one statement per line, ``#`` starts a comment::

    atom <name> ...
    background <sentence>
    <num> <= P(<s>)
    P(<s>) <= <num>
    <num> <= P(<s>) <= <num>
    P(<s>) = <num>
    assume indep(<s>, <s>)
    assume indep(<s>, <s> | <s>)
    assume poscorr(<s>, <s>)
    assume negcorr(<s>, <s>)
    query P(<s>)
    frame <name> ...
    mass <source> {a}: <num>, {a, b}: <num>, ...

Inside ``P(...)`` and after the comma of ``indep(...)``, the first ``|``
at parenthesis depth zero separates the consequent from the antecedent;
write a top-level disjunction in parentheses, e.g. ``P((A | B))``.
Numbers are decimal literals or fractions ``a/b`` and are kept as exact
rationals throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import (
    InvalidBoundError,
    KbParseError,
    NotInfeasibleError,
    SentenceParseError,
    UnknownAtomError,
)
from .sentences import (
    TRUE,
    Atom,
    Sentence,
    WorldSpace,
    atom_names,
    conjunction,
    extension_mask,
    mask_indices,
    parse_sentence,
    to_text,
)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class ProbabilityInterval:
    """A closed interval [lower, upper] of exact rational probabilities."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lower", Fraction(self.lower))
        object.__setattr__(self, "upper", Fraction(self.upper))
        if not (ZERO <= self.lower <= self.upper <= ONE):
            raise InvalidBoundError(
                f"invalid interval [{self.lower}, {self.upper}]"
            )

    @staticmethod
    def point(value) -> "ProbabilityInterval":
        return ProbabilityInterval(Fraction(value), Fraction(value))

    @staticmethod
    def vacuous() -> "ProbabilityInterval":
        return ProbabilityInterval(ZERO, ONE)

    @property
    def is_point(self) -> bool:
        return self.lower == self.upper

    @property
    def is_vacuous(self) -> bool:
        return self.lower == ZERO and self.upper == ONE

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def contains(self, value) -> bool:
        return self.lower <= Fraction(value) <= self.upper

    def contains_interval(self, other: "ProbabilityInterval") -> bool:
        return self.lower <= other.lower and other.upper <= self.upper

    def intersect(self, other: "ProbabilityInterval"):
        """Intersection, or None when the intervals are disjoint."""
        lo = max(self.lower, other.lower)
        hi = min(self.upper, other.upper)
        if lo > hi:
            return None
        return ProbabilityInterval(lo, hi)

    def __str__(self) -> str:
        return f"[{self.lower}, {self.upper}]"


def p_term_text(target: Sentence, given: Sentence = TRUE) -> str:
    """Render P(target | given) so the DSL parses it back identically.

    A target whose text has a ``|`` outside parentheses (a disjunction,
    or one nested under ``->`` or ``<->``) is parenthesized, since the
    first unnested ``|`` inside P(...) is the conditioning separator.
    """
    target_text = to_text(target)
    if len(_split_top_level(target_text, "|")) > 1:
        target_text = f"({target_text})"
    if given == TRUE:
        return f"P({target_text})"
    return f"P({target_text} | {to_text(given)})"


@dataclass(frozen=True)
class CpiAxiom:
    """An interval bound on a conditional probability: q <= P(A|B) <= r.

    Unconditional axioms carry the trivial antecedent ``true``.
    """

    consequent: Sentence
    antecedent: Sentence = TRUE
    bounds: ProbabilityInterval = field(default_factory=ProbabilityInterval.vacuous)

    def __str__(self) -> str:
        term = p_term_text(self.consequent, self.antecedent)
        return f"{self.bounds.lower} <= {term} <= {self.bounds.upper}"


@dataclass(frozen=True)
class CondIndependence:
    """first and second are independent conditional on given (may be true)."""

    first: Sentence
    second: Sentence
    given: Sentence = TRUE


@dataclass(frozen=True)
class PositiveCorrelation:
    """P(a & b) >= P(a) * P(b)."""

    a: Sentence
    b: Sentence


@dataclass(frozen=True)
class NegativeCorrelation:
    """P(a & b) <= P(a) * P(b)."""

    a: Sentence
    b: Sentence


AssumptionConstraint = Union[CondIndependence, PositiveCorrelation, NegativeCorrelation]


@dataclass(frozen=True)
class KnowledgeBase:
    atoms: tuple[str, ...]
    background: tuple[Sentence, ...] = ()
    axioms: tuple[CpiAxiom, ...] = ()
    assumptions: tuple[AssumptionConstraint, ...] = ()
    queries: tuple[tuple[Sentence, Sentence], ...] = ()
    frame: tuple[str, ...] | None = None
    # not hashed (a dict is not hashable); equality still compares it
    masses: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        declared = set(self.atoms)
        for s in self._all_sentences():
            extra = atom_names(s) - declared
            if extra:
                raise UnknownAtomError(
                    f"sentence {s} uses undeclared atoms {sorted(extra)}"
                )

    def _all_sentences(self):
        yield from self.background
        for ax in self.axioms:
            yield ax.consequent
            yield ax.antecedent
        for a in self.assumptions:
            if isinstance(a, CondIndependence):
                yield a.first
                yield a.second
                yield a.given
            else:
                yield a.a
                yield a.b
        for target, given in self.queries:
            yield target
            yield given


class LinearConstraint(NamedTuple):
    """Homogeneous row over world-probability variables: coeffs . x  rel  rhs.

    Linearized axioms always have rhs 0.  This per-world form is the
    reference definition of the problem, read by the test suite's judge
    (``tests/judge.py``) and the benchmark's HiGHS check; every LP the
    package solves builds its rows over world classes from
    :class:`AxiomSide` instead.
    """

    coeffs: dict
    rel: str  # "<=", "=", ">="
    rhs: Fraction = ZERO


class AxiomSide(NamedTuple):
    """One non-vacuous bound of an axiom, as the two extensions it rests on.

    Its row is  (1 - bound) * sum_{both} x - bound * sum_{ante - both} x
    ``rel`` 0, so a world's coefficient depends only on its membership in
    the masks ``both`` (consequent & antecedent) and ``ante``.
    """

    both: int
    ante: int
    bound: Fraction
    rel: str  # ">=" for a lower bound, "<=" for an upper bound


def axiom_sides(axiom: CpiAxiom, ws: WorldSpace) -> list[AxiomSide]:
    """The lower then the upper side of an axiom; the vacuous q=0 and r=1 emit nothing."""
    both = extension_mask(conjunction(axiom.consequent, axiom.antecedent), ws)
    ante = extension_mask(axiom.antecedent, ws)
    return [
        AxiomSide(both, ante, bound, rel)
        for bound, rel, vacuous in (
            (axiom.bounds.lower, ">=", ZERO),
            (axiom.bounds.upper, "<=", ONE),
        )
        if bound != vacuous
    ]


def kb_sides(kb: KnowledgeBase, ws: WorldSpace) -> list[AxiomSide]:
    """Every axiom's sides, in :func:`kb_rows` order."""
    return [side for ax in kb.axioms for side in axiom_sides(ax, ws)]


def linearize(axiom: CpiAxiom, ws: WorldSpace) -> list[LinearConstraint]:
    """Exact linear form of an interval axiom over world probabilities.

    q <= P(A|B) becomes  sum_{A&B} x - q * sum_B x >= 0  and the upper
    bound the mirror-image <=; the vacuous sides q=0 and r=1 emit nothing.
    """
    out = []
    for side in axiom_sides(axiom, ws):
        coeffs: dict[int, Fraction] = dict.fromkeys(mask_indices(side.both), ONE - side.bound)
        coeffs.update(dict.fromkeys(mask_indices(side.ante ^ side.both), -side.bound))
        out.append(LinearConstraint(coeffs, side.rel))
    return out


def kb_rows(kb: KnowledgeBase, ws: WorldSpace) -> list[LinearConstraint]:
    rows = []
    for ax in kb.axioms:
        rows.extend(linearize(ax, ws))
    return rows


def diagnose_inconsistency(kb: KnowledgeBase, ws: WorldSpace) -> list[int]:
    """Deletion-filter a minimal conflicting axiom subset (0-based indices).

    The returned subset is infeasible yet becomes feasible after removing
    any single member; it is minimal in that sense, not of minimum
    cardinality.  Only the linear axioms are judged, as by
    :func:`cpibounds.entailment.feasible`; assumptions play no part.

    The trials come first: once one of them drops an axiom, the full set
    is known to be infeasible.  Only when none does is the full set
    solved, to tell "every axiom" from NotInfeasibleError.  So m axioms
    cost m LPs on an infeasible system, or m + 1 when every axiom is
    needed or the system is feasible (the error path).
    """
    from .entailment import feasible_subset

    indices = list(range(len(kb.axioms)))
    kept = list(indices)
    for idx in indices:
        trial = [i for i in kept if i != idx]
        if not feasible_subset(kb, ws, trial):
            kept = trial
    if kept == indices and feasible_subset(kb, ws, indices):
        raise NotInfeasibleError("axiom system is feasible; nothing to diagnose")
    return kept


# --- DSL parsing -------------------------------------------------------------

def _parse_number(text: str, line: int) -> Fraction:
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise KbParseError(line, f"bad number {text.strip()!r}") from None
    return value


def _parse_bound(text: str, line: int) -> Fraction:
    value = _parse_number(text, line)
    if not (ZERO <= value <= ONE):
        raise InvalidBoundError(f"line {line}: bound {value} outside [0, 1]")
    return value


def _split_top_level(text: str, sep: str) -> list[str]:
    """Split at separators not nested inside () or {}."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _parse_sentence_text(text: str, line: int, declared: set[str]) -> Sentence:
    try:
        s = parse_sentence(text)
    except SentenceParseError as exc:
        raise KbParseError(line, f"bad sentence {text.strip()!r}: {exc}") from None
    extra = atom_names(s) - declared
    if extra:
        raise UnknownAtomError(f"line {line}: undeclared atoms {sorted(extra)}")
    return s


def _parse_p_term(text: str, line: int, declared) -> tuple[Sentence, Sentence, str]:
    """Parse ``P(<s>)`` or ``P(<s> | <s>)``; returns (target, given, rest)."""
    text = text.lstrip()
    if not text.startswith("P"):
        raise KbParseError(line, f"expected P(...), got {text!r}")
    rest = text[1:].lstrip()
    if not rest.startswith("("):
        raise KbParseError(line, "expected '(' after P")
    depth = 0
    for i, ch in enumerate(rest):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                inside = rest[1:i]
                tail = rest[i + 1:]
                break
    else:
        raise KbParseError(line, "unbalanced parentheses in P(...)")
    pieces = _split_top_level(inside, "|")
    target_text = pieces[0]
    given_text = "|".join(pieces[1:]) if len(pieces) > 1 else None
    target = _parse_sentence_text(target_text, line, declared)
    given = (
        _parse_sentence_text(given_text, line, declared)
        if given_text is not None
        else TRUE
    )
    return target, given, tail.strip()


def _parse_axiom_line(stripped: str, line: int, declared) -> CpiAxiom:
    if stripped.startswith("P"):
        target, given, rest = _parse_p_term(stripped, line, declared)
        if rest.startswith("<="):
            upper = _parse_bound(rest[2:], line)
            bounds = ProbabilityInterval(ZERO, upper)
        elif rest.startswith(">="):
            lower = _parse_bound(rest[2:], line)
            bounds = ProbabilityInterval(lower, ONE)
        elif rest.startswith("=") and not rest.startswith("=="):
            value = _parse_bound(rest[1:], line)
            bounds = ProbabilityInterval(value, value)
        else:
            raise KbParseError(line, f"expected '<=', '>=', or '=' after P(...), got {rest!r}")
        return CpiAxiom(target, given, bounds)
    # <num> <= P(...) [<= <num>]
    le = stripped.find("<=")
    if le < 0:
        raise KbParseError(line, f"unrecognized statement {stripped!r}")
    lower = _parse_bound(stripped[:le], line)
    target, given, rest = _parse_p_term(stripped[le + 2:], line, declared)
    if not rest:
        bounds_pair = (lower, ONE)
    elif rest.startswith("<="):
        bounds_pair = (lower, _parse_bound(rest[2:], line))
    else:
        raise KbParseError(line, f"trailing text {rest!r}")
    try:
        bounds = ProbabilityInterval(*bounds_pair)
    except InvalidBoundError as exc:
        raise InvalidBoundError(f"line {line}: {exc}") from None
    return CpiAxiom(target, given, bounds)


def _parse_assume(arg: str, line: int, declared) -> AssumptionConstraint:
    arg = arg.strip()
    for name in ("indep", "poscorr", "negcorr"):
        if arg.startswith(name):
            body = arg[len(name):].strip()
            if not (body.startswith("(") and body.endswith(")")):
                raise KbParseError(line, f"expected {name}(...)")
            parts = _split_top_level(body[1:-1], ",")
            if len(parts) != 2:
                raise KbParseError(line, f"{name} takes exactly two sentences")
            first = _parse_sentence_text(parts[0], line, declared)
            if name == "indep":
                pieces = _split_top_level(parts[1], "|")
                second = _parse_sentence_text(pieces[0], line, declared)
                given = (
                    _parse_sentence_text("|".join(pieces[1:]), line, declared)
                    if len(pieces) > 1
                    else TRUE
                )
                return CondIndependence(first, second, given)
            second = _parse_sentence_text(parts[1], line, declared)
            if name == "poscorr":
                return PositiveCorrelation(first, second)
            return NegativeCorrelation(first, second)
    raise KbParseError(line, f"unknown assumption {arg!r}")


def _parse_mass_line(rest: str, line: int) -> tuple[str, list]:
    parts = rest.split(None, 1)
    if len(parts) != 2:
        raise KbParseError(line, "mass statement needs a source name and entries")
    source, body = parts
    entries = []
    for chunk in _split_top_level(body, ","):
        chunk = chunk.strip()
        if not chunk:
            raise KbParseError(line, "empty mass entry")
        if ":" not in chunk:
            raise KbParseError(line, f"mass entry {chunk!r} needs '{{...}}: value'")
        subset_text, value_text = chunk.rsplit(":", 1)
        subset_text = subset_text.strip()
        if not (subset_text.startswith("{") and subset_text.endswith("}")):
            raise KbParseError(line, f"mass subset must be braced, got {subset_text!r}")
        names = [n.strip() for n in subset_text[1:-1].split(",") if n.strip()]
        if not names:
            raise KbParseError(line, "the empty set cannot carry mass")
        subset, value = frozenset(names), _parse_bound(value_text, line)
        if any(subset == named for named, _ in entries):
            raise KbParseError(line, f"mass subset {subset_text} is named twice")
        entries.append((subset, value))
    return source, entries


def parse_kb(text: str) -> KnowledgeBase:
    """Parse the DSL into a KnowledgeBase; errors carry 1-based line numbers."""
    atoms: list[str] = []
    declared: set[str] = set()
    background: list[Sentence] = []
    axioms: list[CpiAxiom] = []
    assumptions: list[AssumptionConstraint] = []
    queries: list[tuple[Sentence, Sentence]] = []
    frame: tuple[str, ...] | None = None
    masses: dict[str, list] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        head, _, rest = stripped.partition(" ")
        if head == "atom":
            names = rest.split()
            if not names:
                raise KbParseError(line_no, "atom statement needs at least one name")
            for name in names:
                if name in declared:
                    raise KbParseError(line_no, f"atom {name!r} declared twice")
                try:
                    Atom(name)
                except ValueError as exc:
                    raise KbParseError(line_no, str(exc)) from None
                atoms.append(name)
                declared.add(name)
        elif head == "background":
            background.append(_parse_sentence_text(rest, line_no, declared))
        elif head == "assume":
            assumptions.append(_parse_assume(rest, line_no, declared))
        elif head == "query":
            target, given, tail = _parse_p_term(rest, line_no, declared)
            if tail:
                raise KbParseError(line_no, f"trailing text {tail!r} after query")
            queries.append((target, given))
        elif head == "frame":
            if frame is not None:
                raise KbParseError(line_no, "frame declared twice")
            names = rest.split()
            if len(names) < 1 or len(set(names)) != len(names):
                raise KbParseError(line_no, "frame needs distinct singleton names")
            frame = tuple(names)
        elif head == "mass":
            if frame is None:
                raise KbParseError(line_no, "mass requires a prior frame declaration")
            source, entries = _parse_mass_line(rest, line_no)
            if source in masses:
                raise KbParseError(line_no, f"mass source {source!r} declared twice")
            for subset, _ in entries:
                extra = subset - set(frame)
                if extra:
                    raise KbParseError(
                        line_no, f"names outside the frame: {sorted(extra)}"
                    )
            masses[source] = entries
        else:
            axioms.append(_parse_axiom_line(stripped, line_no, declared))

    return KnowledgeBase(
        atoms=tuple(atoms),
        background=tuple(background),
        axioms=tuple(axioms),
        assumptions=tuple(assumptions),
        queries=tuple(queries),
        frame=frame,
        masses=masses,
    )

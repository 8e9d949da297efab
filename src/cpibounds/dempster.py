"""Dempster-Shafer evidence machinery over a finite frame of discernment.

Subsets of the frame are bitmasks over its element order, masses and
beliefs are exact rationals, and the full 2^n tables are materialized
(the frame is capped at 16 elements, 65536 subsets).  A
:class:`MassFunction` holds masses only: the belief and plausibility of
a mass function ``m`` are ``bel_from_mass(m).lower`` and ``.upper``.

The bridge to the rest of the package runs in both directions: an
entailed lower envelope over a frame embedded in the world space is
computed subset-by-subset from the LP bounds, and Moebius inversion
decides whether such an envelope is realizable as a mass function at
all.  Inversion failing with a negative mass is a result, not an error:
it exhibits an upper-lower distribution that no belief function can
express.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .entailment import entail_conditional
from .errors import FrameMappingError, TotalConflictError
from .kb import KnowledgeBase
from .sentences import Atom, Sentence, WorldSpace, disjunction, extension_mask

ZERO = Fraction(0)
ONE = Fraction(1)

FRAME_CAP = 16


@dataclass(frozen=True)
class Frame:
    """Ordered, mutually exclusive, exhaustive singleton hypotheses."""

    elements: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValueError("frame must be non-empty")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("frame elements must be unique")
        if len(self.elements) > FRAME_CAP:
            raise ValueError(f"frame exceeds {FRAME_CAP} elements")

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def mask_of(self, names) -> int:
        mask = 0
        for name in names:
            try:
                mask |= 1 << self.elements.index(name)
            except ValueError:
                raise KeyError(f"{name!r} not in frame {self.elements}") from None
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(e for i, e in enumerate(self.elements) if mask >> i & 1)

    def subsets(self):
        return range(1 << self.size)


class MassFunction:
    """Nonnegative rational masses on frame subsets, summing to one.

    Only focal elements (nonzero mass) are stored.  The empty set may
    not carry mass.
    """

    def __init__(self, frame: Frame, masses):
        self.frame = frame
        focal: dict[int, Fraction] = {}
        total = ZERO
        for mask, value in dict(masses).items():
            value = Fraction(value)
            if not 0 <= mask <= frame.full_mask:
                raise ValueError(f"subset mask {mask} out of range")
            if value < ZERO:
                raise ValueError(f"negative mass {value} on {frame.names_of(mask)}")
            if value == ZERO:
                continue
            if mask == 0:
                raise ValueError("the empty set cannot carry mass")
            focal[mask] = focal.get(mask, ZERO) + value
            total += value
        if total != ONE:
            raise ValueError(f"masses sum to {total}, not 1")
        self._focal = focal

    @classmethod
    def vacuous(cls, frame: Frame) -> "MassFunction":
        return cls(frame, {frame.full_mask: ONE})

    @classmethod
    def from_named(cls, frame: Frame, named) -> "MassFunction":
        """Build from {iterable-of-names: mass} entries."""
        return cls(
            frame, {frame.mask_of(names): value for names, value in dict(named).items()}
        )

    def mass(self, mask: int) -> Fraction:
        return self._focal.get(mask, ZERO)

    def focal(self):
        return sorted(self._focal.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MassFunction)
            and self.frame == other.frame
            and self._focal == other._focal
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{{{', '.join(self.frame.names_of(m))}}}: {v}" for m, v in self.focal()
        )
        return f"MassFunction({parts})"


def _subset_sums(table: list[Fraction], size: int, sign: int) -> None:
    """In place, table[A] <- sum over B subseteq A of sign^|A - B| * table[B].

    Sign +1 is the zeta transform (masses to beliefs); sign -1 is its
    inverse, Moebius inversion (beliefs to masses).
    """
    for i in range(size):
        bit = 1 << i
        for mask in range(1 << size):
            if mask & bit:
                table[mask] += sign * table[mask ^ bit]


@dataclass(frozen=True)
class LowerEnvelope:
    """Lower probability bounds for every frame subset.

    Must satisfy lower(empty) = 0, lower(full frame) = 1, and the
    coherence condition lower(A) + lower(complement of A) <= 1.  Whether
    it is additionally a belief function is exactly what
    :func:`mass_from_bel` decides.
    """

    frame: Frame
    table: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(Fraction(v) for v in self.table))
        full = self.frame.full_mask
        if len(self.table) != full + 1:
            raise ValueError("table must cover every subset")
        if self.table[0] != ZERO or self.table[full] != ONE:
            raise ValueError("lower(empty) must be 0 and lower(frame) must be 1")
        for mask, value in enumerate(self.table):
            if not ZERO <= value <= ONE:
                raise ValueError(f"lower bound {value} outside [0, 1]")
            if value + self.table[full & ~mask] > ONE:
                raise ValueError(
                    f"incoherent pair on {self.frame.names_of(mask)}: "
                    "lower(A) + lower(~A) > 1"
                )

    def lower(self, mask: int) -> Fraction:
        return self.table[mask]

    def upper(self, mask: int) -> Fraction:
        return ONE - self.table[self.frame.full_mask & ~mask]


def bel_from_mass(m: MassFunction) -> LowerEnvelope:
    """The belief function of m: lower(A) = sum of the masses inside A."""
    size = m.frame.size
    table = [ZERO] * (1 << size)
    for mask, value in m.focal():
        table[mask] += value
    _subset_sums(table, size, 1)
    return LowerEnvelope(m.frame, tuple(table))


@dataclass(frozen=True)
class NotRepresentable:
    """Witness that an envelope is not a belief function."""

    frame: Frame
    subset: int
    mass: Fraction

    @property
    def subset_names(self) -> tuple[str, ...]:
        return self.frame.names_of(self.subset)

    def __str__(self) -> str:
        names = ", ".join(self.subset_names)
        return f"not representable: m({{{names}}}) = {self.mass}"


def mass_from_bel(envelope: LowerEnvelope):
    """Moebius-invert a lower envelope back to masses.

    Returns the MassFunction when every inverted mass is nonnegative, so
    the envelope is a belief function, otherwise a NotRepresentable
    witness carrying the most negative computed mass.
    """
    frame = envelope.frame
    table = list(envelope.table)
    _subset_sums(table, frame.size, -1)
    worst_mask = None
    for mask, value in enumerate(table):
        if value < ZERO and (worst_mask is None or value < table[worst_mask]):
            worst_mask = mask
    if worst_mask is not None:
        return NotRepresentable(frame, worst_mask, table[worst_mask])
    return MassFunction(frame, {m: v for m, v in enumerate(table) if v != ZERO})


def dempster_combine(
    m1: MassFunction, m2: MassFunction
) -> tuple[MassFunction, Fraction]:
    """Dempster's rule of combination; returns (combined, conflict mass).

    Raises TotalConflictError when the conflict reaches 1.
    """
    if m1.frame != m2.frame:
        raise ValueError("mass functions live on different frames")
    conflict = ZERO
    raw: dict[int, Fraction] = {}
    for b, vb in m1.focal():
        for c, vc in m2.focal():
            joint = vb * vc
            meet = b & c
            if meet == 0:
                conflict += joint
            else:
                raw[meet] = raw.get(meet, ZERO) + joint
    if conflict == ONE:
        raise TotalConflictError("evidence is flatly contradictory (conflict = 1)")
    norm = ONE - conflict
    return MassFunction(m1.frame, {m: v / norm for m, v in raw.items()}), conflict


def combine_evidence(sources) -> tuple[MassFunction, list[Fraction]]:
    """Left fold of Dempster's rule; returns (combined, conflict per step).

    The combined mass is order-independent; the conflicts are those of
    each step of the fold, in order.  A TotalConflictError names the
    first source whose combination hit total conflict.
    """
    sources = list(sources)
    if not sources:
        raise ValueError("no evidence sources given")
    combined, conflicts = sources[0], []
    for k, m in enumerate(sources[1:], start=2):
        try:
            combined, conflict = dempster_combine(combined, m)
        except TotalConflictError as exc:
            raise TotalConflictError(f"{exc} at source {k} of {len(sources)}") from None
        conflicts.append(conflict)
    return combined, conflicts


def envelope_from_entailment(
    kb: KnowledgeBase, ws: WorldSpace, mapping
) -> LowerEnvelope:
    """Entailed lower bound of every subset of a frame embedded in ws.

    ``mapping`` assigns each frame singleton a sentence; the background
    theory must make those sentences mutually exclusive and exhaustive,
    which is checked rather than assumed.  Complementary subsets share
    one min/max LP pair, since lower(~A) = 1 - max P(A) exactly, and
    lower(empty) = 0 and lower(frame) = 1 hold by definition, so a
    k-element frame costs 2^k - 2 LPs.  Infeasible axioms raise
    InfeasibleError from the first LP; a one-element frame solves none,
    so check :func:`cpibounds.entailment.feasible` first.
    """
    mapping = dict(mapping)
    frame = Frame(tuple(mapping.keys()))
    sentences = [mapping[name] for name in frame.elements]
    covered = 0
    for i, s in enumerate(sentences):
        ext = extension_mask(s, ws)
        if not ext:
            raise FrameMappingError(f"singleton {frame.elements[i]!r} is unsatisfiable")
        if covered & ext:
            raise FrameMappingError(
                "frame singletons are not mutually exclusive under the background"
            )
        covered |= ext
    if covered != ws.full_mask:
        raise FrameMappingError(
            "frame singletons are not exhaustive under the background"
        )
    lower: dict[int, Fraction] = {0: ZERO, frame.full_mask: ONE}
    for mask in frame.subsets():
        if mask in lower:
            continue
        members = [sentences[i] for i in range(frame.size) if mask >> i & 1]
        interval = entail_conditional(kb, ws, disjunction(*members)).interval
        lower[mask] = interval.lower
        lower[frame.full_mask ^ mask] = ONE - interval.upper
    return LowerEnvelope(frame, tuple(lower[mask] for mask in frame.subsets()))


def frame_mapping_from_kb(kb: KnowledgeBase) -> dict[str, Sentence]:
    """The declared frame's singletons as atom sentences."""
    if kb.frame is None:
        raise FrameMappingError("knowledge base declares no frame")
    return {name: Atom(name) for name in kb.frame}


def mass_functions_from_kb(kb: KnowledgeBase) -> dict[str, MassFunction]:
    """Named mass sources declared in the DSL, in declaration order."""
    if kb.frame is None:
        if kb.masses:
            raise FrameMappingError("mass sources require a frame declaration")
        return {}
    frame = Frame(kb.frame)
    out = {}
    for name, entries in kb.masses.items():
        out[name] = MassFunction(
            frame, {frame.mask_of(names): value for names, value in entries}
        )
    return out

"""Propositional sentences, truth assignments, and possible-world spaces.

Sentence syntax (EBNF):

    sentence := iff
    iff      := impl ("<->" impl)*
    impl     := or ("->" impl)?
    or       := and ("|" and)*
    and      := unary ("&" unary)*
    unary    := "!" unary | "(" sentence ")" | "true" | "false" | IDENT

Operator precedence is ``<->`` < ``->`` < ``|`` < ``&`` < ``!``;
``->`` is right-associative, ``<->`` folds left, and ``&``/``|`` parse
to flat variadic nodes.  Identifiers start with a letter and may contain
letters, digits, and underscores; ``true`` and ``false`` are reserved.

A world space is the full enumeration of truth assignments over a fixed
atom list, filtered by a hard background theory.  Worlds are kept in
lexicographic order on the atom-ordered boolean vector (false < true),
so variable indices in downstream linear programs are deterministic.

An extension is held as an int bitmask: bit ``i`` is set when the
sentence holds in world ``i``, so the lexicographic world order is the
bit order.  Each atom's mask is built by pattern arithmetic over the
2^n assignments, the background keeps the assignments in the
conjunction of its masks, and every other sentence is evaluated with
``& | ^`` on masks, never world by world (Knuth, TAOCP 4A, 7.1.3, on
truth tables as bit vectors).  :func:`extension` turns a mask into
world indices; the package evaluates no sentence in a single world.  A
world space stores only the mask of its kept assignments; ``ws.worlds``
makes the :class:`World` records from it on each access.
Sentences are immutable and every operation is pure, but a world space
memoizes masks in a mutable per-instance cache (``_ext_cache``), so a
world space is not safe to share across threads without a lock.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .errors import (
    AtomCapError,
    EmptyWorldSpaceError,
    SentenceParseError,
    UnknownAtomError,
)

DEFAULT_ATOM_CAP = 20

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_RESERVED = frozenset({"true", "false"})


class Sentence:
    """Base class for propositional formula nodes."""

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class TrueConst(Sentence):
    pass


@dataclass(frozen=True)
class FalseConst(Sentence):
    pass


TRUE = TrueConst()
FALSE = FalseConst()


@dataclass(frozen=True)
class Atom(Sentence):
    """A named primitive proposition; doubles as the leaf AST node."""

    name: str

    def __post_init__(self):
        if not _IDENT_RE.match(self.name) or self.name in _RESERVED:
            raise ValueError(f"invalid atom name: {self.name!r}")


@dataclass(frozen=True)
class Not(Sentence):
    child: Sentence


@dataclass(frozen=True)
class And(Sentence):
    children: tuple[Sentence, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValueError("And requires at least two children")


@dataclass(frozen=True)
class Or(Sentence):
    children: tuple[Sentence, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValueError("Or requires at least two children")


@dataclass(frozen=True)
class Implies(Sentence):
    left: Sentence
    right: Sentence


@dataclass(frozen=True)
class Iff(Sentence):
    left: Sentence
    right: Sentence


def conjunction(*parts: Sentence) -> Sentence:
    """Conjunction of the given parts, dropping redundant ``true`` terms."""
    real = [p for p in parts if p != TRUE]
    if not real:
        return TRUE
    if len(real) == 1:
        return real[0]
    return And(tuple(real))


def disjunction(*parts: Sentence) -> Sentence:
    real = [p for p in parts if p != FALSE]
    if not real:
        return FALSE
    if len(real) == 1:
        return real[0]
    return Or(tuple(real))


def atom_names(s: Sentence) -> frozenset[str]:
    """All atom names occurring in the sentence."""
    out: set[str] = set()
    stack = [s]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            out.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack.extend(node.children)
        elif isinstance(node, (Implies, Iff)):
            stack.append(node.left)
            stack.append(node.right)
    return frozenset(out)


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(<->|->|[()!&|]|[A-Za-z][A-Za-z0-9_]*)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or not m.group(1):
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise SentenceParseError(
                f"unexpected character {stripped[0]!r}", at,
                "identifier, constant, operator, or parenthesis",
            )
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def take(self) -> str:
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def fail(self, expected: str):
        got = self.peek()
        msg = "unexpected end of input" if got is None else f"unexpected token {got!r}"
        raise SentenceParseError(msg, self.pos(), expected)

    def sentence(self) -> Sentence:
        node = self.impl()
        while self.peek() == "<->":
            self.take()
            node = Iff(node, self.impl())
        return node

    def impl(self) -> Sentence:
        left = self.disj()
        if self.peek() == "->":
            self.take()
            return Implies(left, self.impl())
        return left

    def disj(self) -> Sentence:
        parts = [self.conj()]
        while self.peek() == "|":
            self.take()
            parts.append(self.conj())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conj(self) -> Sentence:
        parts = [self.unary()]
        while self.peek() == "&":
            self.take()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Sentence:
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.unary())
        if tok == "(":
            self.take()
            inner = self.sentence()
            if self.peek() != ")":
                self.fail("')'")
            self.take()
            return inner
        if tok == "true":
            self.take()
            return TRUE
        if tok == "false":
            self.take()
            return FALSE
        if tok is not None and _IDENT_RE.match(tok):
            self.take()
            return Atom(tok)
        self.fail("'!', '(', 'true', 'false', or identifier")
        raise AssertionError("unreachable")


def parse_sentence(text: str) -> Sentence:
    """Parse sentence text into an AST; raises SentenceParseError on bad input."""
    parser = _Parser(text)
    node = parser.sentence()
    if parser.peek() is not None:
        parser.fail("end of input")
    return node


# --- printing --------------------------------------------------------------

# how tightly each connective binds; atoms and constants bind tightest
_PRECEDENCE = {Iff: 0, Implies: 1, Or: 2, And: 3, Not: 4}


def _slot(child: Sentence, limit: int) -> str:
    """A child's text, parenthesized unless it binds tighter than ``limit``."""
    text = to_text(child)
    return f"({text})" if _PRECEDENCE.get(type(child), 5) <= limit else text


def to_text(s: Sentence) -> str:
    """Render a sentence so that re-parsing yields the identical AST.

    Each slot's limit is its connective's precedence, one lower on the
    right of ``->`` (which groups right), the left of ``<->`` (which
    folds left) and under ``!``.
    """
    if isinstance(s, TrueConst):
        return "true"
    if isinstance(s, FalseConst):
        return "false"
    if isinstance(s, Atom):
        return s.name
    if isinstance(s, Not):
        return "!" + _slot(s.child, 3)
    if isinstance(s, And):
        return " & ".join(_slot(c, 3) for c in s.children)
    if isinstance(s, Or):
        return " | ".join(_slot(c, 2) for c in s.children)
    if isinstance(s, Implies):
        return f"{_slot(s.left, 1)} -> {_slot(s.right, 0)}"
    if isinstance(s, Iff):
        return f"{_slot(s.left, -1)} <-> {_slot(s.right, 0)}"
    raise TypeError(f"not a sentence node: {s!r}")


# --- worlds ----------------------------------------------------------------

@dataclass(frozen=True)
class World:
    """One total truth assignment over a fixed atom order."""

    atoms: tuple[str, ...]
    values: tuple[bool, ...]


@dataclass(frozen=True)
class WorldSpace:
    """All truth assignments consistent with the background theory.

    Worlds are in lexicographic order of their boolean vectors, so index
    ``i`` is stable across runs and usable as an LP variable index; it is
    also bit ``i`` of every extension mask.  ``kept`` is the mask of the
    kept assignments among all 2^n in product order; it follows from the
    atoms and the background, so equality compares only those.  The
    cache maps sentences to masks and starts out holding each atom's.
    """

    atoms: tuple[str, ...]
    background: tuple[Sentence, ...]
    kept: int = field(repr=False, compare=False)
    _ext_cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __len__(self) -> int:
        return self.kept.bit_count()

    @property
    def full_mask(self) -> int:
        """The mask of every world."""
        return (1 << len(self)) - 1

    @property
    def worlds(self) -> tuple[World, ...]:
        """One :class:`World` per kept assignment, in index order, built on each access."""
        values = itertools.product((False, True), repeat=len(self.atoms))
        flags = _bits(self.kept, 1 << len(self.atoms)).translate(_BIT_BYTES)
        return tuple(World(self.atoms, v) for v in itertools.compress(values, flags))


def _atom_name(a) -> str:
    return a.name if isinstance(a, Atom) else str(a)


def _assignment_masks(count: int) -> list[int]:
    """Per atom, the mask of the assignments (in product order) that make it true.

    Assignment ``a`` gives atom ``k`` the value of bit ``count - 1 - k`` of
    ``a``, so atom ``k``'s mask repeats ``b`` zeros then ``b`` ones, with
    ``b = 2^(count-1-k)``: one block times the sum of its shifts.
    """
    everything = (1 << (1 << count)) - 1
    out = []
    for k in range(count):
        b = 1 << (count - 1 - k)
        out.append((((1 << b) - 1) << b) * (everything // ((1 << 2 * b) - 1)))
    return out


def _mask(s: Sentence, cache: dict, full: int) -> int:
    """The mask of ``s``; atoms are read from ``cache``, nothing is stored."""
    if isinstance(s, Atom):
        return cache[s]
    if isinstance(s, TrueConst):
        return full
    if isinstance(s, FalseConst):
        return 0
    if isinstance(s, Not):
        return full ^ _mask(s.child, cache, full)
    if isinstance(s, And):
        out = full
        for c in s.children:
            out &= _mask(c, cache, full)
        return out
    if isinstance(s, Or):
        out = 0
        for c in s.children:
            out |= _mask(c, cache, full)
        return out
    if isinstance(s, Implies):
        return (full ^ _mask(s.left, cache, full)) | _mask(s.right, cache, full)
    if isinstance(s, Iff):
        return full ^ _mask(s.left, cache, full) ^ _mask(s.right, cache, full)
    raise TypeError(f"not a sentence node: {s!r}")


# one byte per bit: 0 or 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int, size: int) -> bytes:
    """Bits 0..size-1 of ``mask`` as ASCII digits, bit 0 first."""
    return format(mask, f"0{size}b")[::-1].encode()


def build_world_space(
    atoms,
    background=(),
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> WorldSpace:
    """Enumerate all assignments over ``atoms`` and keep those satisfying
    every background sentence.

    Raises AtomCapError beyond ``atom_cap`` atoms (enumeration is 2^n),
    EmptyWorldSpaceError when the background is unsatisfiable, and
    UnknownAtomError when a background sentence mentions an undeclared atom.
    """
    names = tuple(_atom_name(a) for a in atoms)
    if not names:
        raise ValueError("atom list must be non-empty")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate atom names in {names}")
    if len(names) > atom_cap:
        raise AtomCapError(
            f"{len(names)} atoms exceeds cap {atom_cap}; pass a larger atom_cap"
        )
    background = tuple(background)
    declared = set(names)
    for s in background:
        extra = atom_names(s) - declared
        if extra:
            raise UnknownAtomError(
                f"background sentence uses undeclared atoms {sorted(extra)}"
            )
    size = 1 << len(names)
    full = (1 << size) - 1
    cache: dict = dict(zip(map(Atom, names), _assignment_masks(len(names))))
    kept = full
    for s in background:
        kept &= _mask(s, cache, full)
    if not kept:
        raise EmptyWorldSpaceError("background theory is unsatisfiable")
    if kept != full:
        # pack each atom's mask onto the surviving assignments
        flags = _bits(kept, size).translate(_BIT_BYTES)
        for a, m in cache.items():
            cache[a] = int(bytes(itertools.compress(_bits(m, size), flags))[::-1], 2)
    return WorldSpace(names, background, kept, cache)


def extension_mask(s: Sentence, ws: WorldSpace) -> int:
    """The worlds where ``s`` holds, as a mask (cached per world space)."""
    cache = ws._ext_cache
    m = cache.get(s)
    if m is None:
        try:
            m = cache[s] = _mask(s, cache, ws.full_mask)
        except KeyError:
            extra = atom_names(s) - set(ws.atoms)
            raise UnknownAtomError(
                f"sentence uses undeclared atoms {sorted(extra)}"
            ) from None
    return m


def mask_indices(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first."""
    return [i for i, d in enumerate(bin(mask)[:1:-1]) if d == "1"]


def extension(s: Sentence, ws: WorldSpace) -> frozenset[int]:
    """Indices of the worlds where ``s`` holds."""
    return frozenset(mask_indices(extension_mask(s, ws)))

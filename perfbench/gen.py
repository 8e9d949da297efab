"""Seeded knowledge-base generators for the benchmark workloads.

Every instance is built around a planted distribution over the worlds,
so the planted value of each query is known exactly and every KB meant
to be feasible is feasible by construction.  Instance ``i`` of a workload
depends only on (workload, seed, i), so runs of any length see the same
prefix of inputs.

Two random streams build each instance.  ``shape``, seeded by the
workload and the slot ``i % POOL`` alone, draws its structure: the
sentences, the atoms each may mention, their order.  ``rng``, seeded by
(workload, seed, i), draws its contents: the planted distribution, the
bounds and a relabelling of the atoms.  Every run thus cycles through
the same pool of structures, each time with new contents, which keeps
the seed-to-seed spread of the inputs' cost small next to the
benchmark's bounds.

The generator writes its own ``P(...)`` text, fully parenthesized, and
never uses the package's renderer: ``kb.p_term_text`` renders an
implication target that contains ``|`` without parentheses
(``Implies(Or(A, B), C)`` becomes ``P(A | B -> C)``, which parses back
as A given ``B -> C``).

Sentences are nested tuples: ``("atom", name)``, ``("not", s)``,
``("and", a, b)``, ``("or", a, b)``, ``("imp", a, b)``; ``None`` is the
trivial antecedent.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
GRID = 20

WORKLOADS = ("entail-lp", "wide-sparse", "analyses")
# instance i takes the structure of slot i % POOL; a run holds several
# cycles of the pool, a multiple of the analyses mix and the bb kinds
POOL = 28
ATOMS = ("A", "B", "C", "D", "E", "F", "G", "H")
# one request of the analyses mix per entry, cycled in this order, so
# every run holds the same share of each kind; B&B twice, so that a run
# holds enough B&B answers for steady shares
ANALYSES_MIX = ("maxent", "ds", "bb", "entail-maxent", "check", "propagate", "bb")
# request kinds whose output is one entailed interval per query
INTERVAL_KINDS = ("entail", "entail-maxent", "maxent", "bb")
# the bb requests' single assumption, cycled in this order
BB_KINDS = ("indep", "cond-indep", "poscorr", "negcorr")


@dataclass
class Instance:
    """One request: a knowledge base, the CLI arguments, and what is known."""

    kind: str
    argv: list  # CLI arguments; the KB path replaces "{kb}"
    text: str
    atoms: tuple
    planted: dict  # world (tuple of bools) -> Fraction
    queries: list  # (target, given) in file order
    axioms: list = field(default_factory=list)  # (consequent, antecedent, lo, hi)
    expect_exit: int = 0
    frame: tuple | None = None


def evaluate(s, world: dict) -> bool:
    tag = s[0]
    if tag == "atom":
        return world[s[1]]
    if tag == "not":
        return not evaluate(s[1], world)
    if tag == "and":
        return evaluate(s[1], world) and evaluate(s[2], world)
    if tag == "or":
        return evaluate(s[1], world) or evaluate(s[2], world)
    return (not evaluate(s[1], world)) or evaluate(s[2], world)


def render(s) -> str:
    tag = s[0]
    if tag == "atom":
        return s[1]
    if tag == "not":
        return f"!({render(s[1])})"
    op = {"and": "&", "or": "|", "imp": "->"}[tag]
    return f"({render(s[1])} {op} {render(s[2])})"


def p_term(target, given=None) -> str:
    """``P(...)`` text with the target always parenthesized."""
    if given is None:
        return f"P(({render(target)}))"
    return f"P(({render(target)}) | ({render(given)}))"


def worlds_of(atoms):
    return [dict(zip(atoms, bits)) for bits in itertools.product((False, True), repeat=len(atoms))]


def probability(planted: dict, atoms, s, given=None) -> Fraction:
    """Exact planted P(s | given); the antecedent must have positive mass."""
    num = den = ZERO
    for bits, p in planted.items():
        world = dict(zip(atoms, bits))
        if given is None or evaluate(given, world):
            den += p
            if evaluate(s, world):
                num += p
    return num / den


def satisfiable(s, atoms) -> bool:
    return any(evaluate(s, w) for w in worlds_of(atoms))


def random_sentence(rng, atoms, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return ("atom", rng.choice(atoms))
    kind = rng.choice(("not", "and", "or", "imp"))
    if kind == "not":
        return ("not", random_sentence(rng, atoms, depth - 1))
    return (kind, random_sentence(rng, atoms, depth - 1), random_sentence(rng, atoms, depth - 1))


def planted_support(rng, atoms) -> dict:
    """A full-support distribution with small integer weights."""
    weights = {
        tuple(w[a] for a in atoms): rng.randint(1, 12) for w in worlds_of(atoms)
    }
    total = sum(weights.values())
    return {bits: Fraction(v, total) for bits, v in weights.items()}


def grid_interval(rng, value: Fraction):
    """A grid interval around ``value``, widened outward by 0 to 3 steps."""
    lo = Fraction(math.floor(value * GRID) - rng.randint(0, 3), GRID)
    hi = Fraction(math.ceil(value * GRID) + rng.randint(0, 3), GRID)
    return max(lo, ZERO), min(hi, ONE)


def axiom_line(consequent, antecedent, lo, hi) -> str:
    term = p_term(consequent, antecedent)
    if lo == hi:
        return f"{term} = {lo}"
    return f"{lo} <= {term} <= {hi}"


def random_given(rng, atoms):
    while True:
        given = random_sentence(rng, atoms, 1)
        if satisfiable(given, atoms):
            return given


def relabel(s, rename: dict):
    if s is None:
        return None
    if s[0] == "atom":
        return ("atom", rename[s[1]])
    return (s[0], *(relabel(c, rename) for c in s[1:]))


def planted_kb(shape, rng, atoms, axioms, queries, *, points=0, local=None):
    """Axioms and queries around a planted distribution.

    ``axioms`` and ``queries`` are (count, conditional count) pairs;
    ``points`` unconditional axioms pin their planted value exactly.
    ``local`` draws the atoms each sentence may use (default: all).
    ``shape`` draws the sentences and their order; ``rng`` draws the
    planted distribution, the bounds and a relabelling of the atoms.
    """
    planted = planted_support(rng, atoms)
    rename = dict(zip(atoms, rng.sample(atoms, len(atoms))))

    def draw(conditional):
        pool = local(shape) if local else atoms
        given = random_given(shape, pool) if conditional else None
        return relabel(random_sentence(shape, pool), rename), relabel(given, rename)

    n, cond = axioms
    out = []
    for k in shape.sample(range(n), n):
        consequent, antecedent = draw(k < cond)
        value = probability(planted, atoms, consequent, antecedent)
        lo, hi = (value, value) if k >= n - points else grid_interval(rng, value)
        out.append((consequent, antecedent, lo, hi))
    n, cond = queries
    return planted, out, [draw(k < cond) for k in shape.sample(range(n), n)]


def kb_text(atoms, axioms, queries, extra=()) -> str:
    lines = [f"atom {' '.join(atoms)}", *extra]
    lines += [axiom_line(*ax) for ax in axioms]
    lines += [f"query {p_term(t, g)}" for t, g in queries]
    return "\n".join(lines) + "\n"


def gen_entail_lp(shape, rng, index) -> Instance:
    atoms = ATOMS[:4]
    planted, axioms, queries = planted_kb(shape, rng, atoms, (6, 2), (4, 2), points=1)
    return Instance(
        "entail", ["entail", "{kb}", "--json"],
        kb_text(atoms, axioms, queries), atoms, planted, queries, axioms,
    )


def gen_wide_sparse(shape, rng, index) -> Instance:
    atoms = ATOMS[:8]

    def local(shape):
        return tuple(shape.sample(atoms, shape.randint(2, 3)))

    planted, axioms, queries = planted_kb(
        shape, rng, atoms, (3, 1), (1, index % 2), local=local)
    return Instance(
        "entail", ["entail", "{kb}", "--json"],
        kb_text(atoms, axioms, queries), atoms, planted, queries, axioms,
    )


def gen_bb(shape, rng, index) -> Instance:
    atoms = ATOMS[:3]
    marg = {a: Fraction(rng.randint(2, 8), 10) for a in atoms}
    planted = {}
    for bits in itertools.product((False, True), repeat=3):
        p = ONE
        for a, b in zip(atoms, bits):
            p *= marg[a] if b else ONE - marg[a]
        planted[bits] = p
    # atoms are independent under the planted product distribution, so
    # every assumption over disjoint atom sets holds with equality
    x, y, z = rng.sample(atoms, 3)
    X, Y, Z = ("atom", x), ("atom", y), ("atom", z)
    assumption, product = {
        "indep": (f"indep({x}, {y})", ("and", X, Y)),
        "cond-indep": (f"indep({x}, {y} | {z})", ("and", ("and", X, Y), Z)),
        "poscorr": (f"poscorr({x}, ({y} | {z}))", ("and", X, ("or", Y, Z))),
        "negcorr": (f"negcorr({x}, {z})", ("and", X, Z)),
    }[BB_KINDS[index % len(BB_KINDS)]]
    candidates = [X, Y, Z, ("or", X, Y), ("or", Y, Z), ("or", X, Z)]
    axioms = []
    for k, s in enumerate(shape.sample(candidates, 4)):
        value = probability(planted, atoms, s)
        lo, hi = (value, value) if k == 0 else grid_interval(rng, value)
        axioms.append((s, None, lo, hi))
    queries = [(product, None)]
    return Instance(
        "bb",
        ["entail", "{kb}", "--json", "--tolerance", "1/10000", "--node-cap", "5"],
        kb_text(atoms, axioms, queries, [f"assume {assumption}"]),
        atoms, planted, queries, axioms,
    )


def gen_ds(shape, rng, index, action) -> Instance:
    atoms = ATOMS[: 3 + index % 2]
    weights = [rng.randint(1, 10) for _ in atoms]
    total = sum(weights)
    planted = {}
    for k, a in enumerate(atoms):
        planted[tuple(b == a for b in atoms)] = Fraction(weights[k], total)
    extra = [f"background {' | '.join(atoms)}"]
    extra += [f"background !({a} & {b})" for a, b in itertools.combinations(atoms, 2)]
    extra.append(f"frame {' '.join(atoms)}")
    axioms = []
    for _ in range(shape.randint(3, 5)):
        members = shape.sample(atoms, shape.randint(1, len(atoms) - 1))
        s = ("atom", members[0])
        for m in members[1:]:
            s = ("or", s, ("atom", m))
        value = probability(planted, atoms, s)
        lo, _ = grid_interval(rng, value)
        axioms.append((s, None, lo, ONE))
    return Instance(
        f"ds-{action}", ["ds", action, "{kb}", "--json"],
        kb_text(atoms, axioms, [], extra), atoms, planted, [], axioms, frame=atoms,
    )


def gen_check(shape, rng, index) -> Instance:
    atoms = ATOMS[:4]
    planted, axioms, _ = planted_kb(shape, rng, atoms, (4, 1), (0, 0))
    # P(S) >= a, P(T) >= b and P(S & T) <= c with a + b - 1 > c contradict
    # the Frechet bound whatever S and T are
    s, t = random_sentence(shape, atoms, 1), random_sentence(shape, atoms, 1)
    a = Fraction(rng.randint(12, 16), GRID)
    b = Fraction(rng.randint(12, 16), GRID)
    c = a + b - ONE - Fraction(rng.randint(2, 4), GRID)
    conflict = [(s, None, a, ONE), (t, None, b, ONE), (("and", s, t), None, ZERO, c)]
    for ax in conflict:
        axioms.insert(shape.randint(0, len(axioms)), ax)
    return Instance(
        "check", ["check", "{kb}", "--json"],
        kb_text(atoms, axioms, []), atoms, planted, [], axioms, expect_exit=2,
    )


def gen_analyses(shape, rng, index) -> Instance:
    slot = index % len(ANALYSES_MIX)
    kind = ANALYSES_MIX[slot]
    # how many requests of this kind came before, to cycle their variants
    seen = index // len(ANALYSES_MIX) * ANALYSES_MIX.count(kind)
    seen += ANALYSES_MIX[:slot].count(kind)
    if kind == "ds":
        return gen_ds(shape, rng, seen // 2, ("envelope", "representable")[seen % 2])
    if kind == "check":
        return gen_check(shape, rng, seen)
    if kind == "bb":
        return gen_bb(shape, rng, seen)
    atoms = ATOMS[:4]
    planted, axioms, queries = planted_kb(shape, rng, atoms, (4, 1), (2, 1), points=1)
    argv = {
        "maxent": ["maxent", "{kb}", "--json"],
        "entail-maxent": ["entail", "{kb}", "--json", "--maxent"],
        "propagate": ["propagate", "{kb}", "--json", "--judge"],
    }[kind]
    return Instance(kind, argv, kb_text(atoms, axioms, queries), atoms, planted, queries, axioms)


GENERATORS = {
    "entail-lp": gen_entail_lp,
    "wide-sparse": gen_wide_sparse,
    "analyses": gen_analyses,
}


def instance(workload: str, seed: int, index: int) -> Instance:
    slot = index % POOL
    shape = random.Random(f"{workload}/shape/{slot}")
    rng = random.Random(f"{workload}/{seed}/{index}")
    return GENERATORS[workload](shape, rng, slot)

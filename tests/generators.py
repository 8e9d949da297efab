"""Random instance generators and reference semantics shared across the test modules."""

from fractions import Fraction

from cpibounds import (
    And,
    Atom,
    CpiAxiom,
    FalseConst,
    Iff,
    Implies,
    KnowledgeBase,
    Not,
    Or,
    ProbabilityInterval,
    TRUE,
    TrueConst,
    build_world_space,
    feasible,
)

ATOM_NAMES = ("A", "B", "C", "D")


def evaluate(s, w) -> bool:
    """Classical truth-functional evaluation of ``s`` in the world ``w``.

    The per-world reference that the package's bitmask extensions are
    checked against; ``w`` is a :class:`cpibounds.World`.
    """
    if isinstance(s, TrueConst):
        return True
    if isinstance(s, FalseConst):
        return False
    if isinstance(s, Atom):
        return w.values[w.atoms.index(s.name)]
    if isinstance(s, Not):
        return not evaluate(s.child, w)
    if isinstance(s, And):
        return all(evaluate(c, w) for c in s.children)
    if isinstance(s, Or):
        return any(evaluate(c, w) for c in s.children)
    if isinstance(s, Implies):
        return (not evaluate(s.left, w)) or evaluate(s.right, w)
    if isinstance(s, Iff):
        return evaluate(s.left, w) == evaluate(s.right, w)
    raise TypeError(f"not a sentence node: {s!r}")


def random_sentence(rng, atoms, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return Atom(rng.choice(atoms))
    kind = rng.choice(("not", "and", "or", "implies"))
    if kind == "not":
        return Not(random_sentence(rng, atoms, depth - 1))
    a = random_sentence(rng, atoms, depth - 1)
    b = random_sentence(rng, atoms, depth - 1)
    if kind == "and":
        return And((a, b))
    if kind == "or":
        return Or((a, b))
    return Implies(a, b)


def random_bounds(rng, grid=20) -> ProbabilityInterval:
    lo, hi = sorted((rng.randint(0, grid), rng.randint(0, grid)))
    return ProbabilityInterval(Fraction(lo, grid), Fraction(hi, grid))


def random_kb(rng, max_atoms=4, max_axioms=5, conditional_share=0.4):
    n = rng.randint(2, max_atoms)
    atoms = ATOM_NAMES[:n]
    axioms = []
    for _ in range(rng.randint(1, max_axioms)):
        consequent = random_sentence(rng, atoms)
        antecedent = (
            random_sentence(rng, atoms, 1)
            if rng.random() < conditional_share
            else TRUE
        )
        axioms.append(CpiAxiom(consequent, antecedent, random_bounds(rng)))
    return KnowledgeBase(atoms=tuple(atoms), axioms=tuple(axioms))


def random_feasible_kb(rng, **kwargs):
    """Rejection-sample a knowledge base with a nonempty feasible set."""
    while True:
        kb = random_kb(rng, **kwargs)
        ws = build_world_space(kb.atoms)
        if feasible(kb, ws):
            return kb, ws


def one_class_per_world(class_program):
    """``class_program`` with every world split into its own class.

    Passing each world's mask as an extra mask leaves one class per
    world, numbered by world, which is the per-world program; the extra
    class sets are dropped, so callers see the usual return value.
    """

    def split(sides, n, masks):
        classes, rows, sets = class_program(sides, n, (*masks, *(1 << i for i in range(n))))
        return classes, rows, sets[: len(masks)]

    return split

"""Sentence parsing, evaluation, and world-space construction."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpibounds import (
    FALSE,
    TRUE,
    And,
    Atom,
    AtomCapError,
    EmptyWorldSpaceError,
    Iff,
    Implies,
    Not,
    Or,
    SentenceParseError,
    UnknownAtomError,
    World,
    build_world_space,
    extension,
    extension_mask,
    parse_sentence,
    to_text,
)
from generators import evaluate

A, B, C = Atom("A"), Atom("B"), Atom("C")


class TestParsing:
    def test_conjunction_with_negation(self):
        assert parse_sentence("A & !B") == And((A, Not(B)))

    def test_implication_is_right_associative(self):
        assert parse_sentence("A -> B -> C") == Implies(A, Implies(B, C))

    def test_and_binds_tighter_than_or(self):
        assert parse_sentence("A & B | C") == Or((And((A, B)), C))

    def test_variadic_connectives_are_flat(self):
        assert parse_sentence("A & B & C") == And((A, B, C))
        assert parse_sentence("A | B | C") == Or((A, B, C))

    def test_iff_folds_left(self):
        assert parse_sentence("A <-> B <-> C") == Iff(Iff(A, B), C)

    def test_constants_and_parens(self):
        assert parse_sentence("true") == TRUE
        assert parse_sentence("!(A | false)") == Not(Or((A, FALSE)))

    @pytest.mark.parametrize("bad", ["", "A &", "(A", "A B", "-> B", "A @ B"])
    def test_malformed_input_raises_with_position(self, bad):
        with pytest.raises(SentenceParseError) as err:
            parse_sentence(bad)
        assert "position" in str(err.value)

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            And((A,))
        with pytest.raises(ValueError):
            Atom("true")
        with pytest.raises(ValueError):
            Atom("9lives")


def _sentences(atom_names=("A", "B", "C")):
    atoms = st.sampled_from([Atom(n) for n in atom_names])
    return st.recursive(
        st.one_of(atoms, st.just(TRUE), st.just(FALSE)),
        lambda children: st.one_of(
            children.map(Not),
            st.tuples(children, children).map(And),
            st.tuples(children, children).map(Or),
            st.tuples(children, children, children).map(And),
            st.tuples(children, children).map(lambda p: Implies(*p)),
            st.tuples(children, children).map(lambda p: Iff(*p)),
        ),
        max_leaves=12,
    )


@given(_sentences())
@settings(max_examples=300)
def test_print_parse_round_trip(s):
    assert parse_sentence(to_text(s)) == s


class TestEvaluation:
    world = World(("A", "B"), (True, False))

    def test_constants(self):
        assert evaluate(TRUE, self.world)
        assert not evaluate(FALSE, self.world)

    def test_tautology(self):
        assert evaluate(parse_sentence("A | !A"), self.world)

    def test_truth_table_row(self):
        assert not evaluate(And((A, B)), self.world)
        assert evaluate(Implies(B, A), self.world)
        assert evaluate(Iff(B, FALSE), self.world)


class TestWorldSpace:
    def test_full_enumeration(self):
        ws = build_world_space(["A", "B"])
        assert len(ws) == 4
        # canonical order: lexicographic on boolean vectors, false < true
        assert [w.values for w in ws.worlds] == [
            (False, False), (False, True), (True, False), (True, True),
        ]

    def test_exactly_one_background(self):
        exactly_one = parse_sentence(
            "(A | B | C) & !(A & B) & !(A & C) & !(B & C)"
        )
        ws = build_world_space(["A", "B", "C"], [exactly_one])
        assert len(ws) == 3

    def test_contradictory_background(self):
        with pytest.raises(EmptyWorldSpaceError):
            build_world_space(["A"], [A, Not(A)])

    def test_atom_cap(self):
        with pytest.raises(AtomCapError):
            build_world_space([f"x{i}" for i in range(25)])
        ws = build_world_space(["x0", "x1", "x2"], atom_cap=3)
        assert len(ws) == 8

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError):
            build_world_space(["A", "A"])

    def test_background_must_use_declared_atoms(self):
        with pytest.raises(UnknownAtomError):
            build_world_space(["A"], [B])


class TestExtension:
    ws = build_world_space(["A", "B"])

    def test_constants(self):
        assert extension(TRUE, self.ws) == frozenset(range(4))
        assert extension(FALSE, self.ws) == frozenset()

    def test_atom(self):
        assert extension(A, self.ws) == frozenset({2, 3})

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtomError):
            extension(C, self.ws)

    @given(_sentences(atom_names=("A", "B")), _sentences(atom_names=("A", "B")))
    @settings(max_examples=200)
    def test_boolean_algebra(self, s1, s2):
        ws = self.ws
        assert extension(Not(s1), ws) == frozenset(range(4)) - extension(s1, ws)
        assert extension(And((s1, s2)), ws) == extension(s1, ws) & extension(s2, ws)
        assert extension(Or((s1, s2)), ws) == extension(s1, ws) | extension(s2, ws)

    def test_background_filter_matches_brute_force(self):
        rng = random.Random(11)
        from generators import random_sentence

        for _ in range(30):
            background = [random_sentence(rng, ("A", "B", "C"), 2)]
            full = build_world_space(["A", "B", "C"])
            expect = [
                w for w in full.worlds if all(evaluate(t, w) for t in background)
            ]
            if not expect:
                with pytest.raises(EmptyWorldSpaceError):
                    build_world_space(["A", "B", "C"], background)
                continue
            ws = build_world_space(["A", "B", "C"], background)
            assert list(ws.worlds) == expect


def _random_sentence(rng, atoms, depth):
    """A random sentence over every connective and both constants."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([*map(Atom, atoms), TRUE, FALSE])
    kind = rng.randrange(5)
    if kind == 0:
        return Not(_random_sentence(rng, atoms, depth - 1))
    if kind in (1, 2):
        children = tuple(
            _random_sentence(rng, atoms, depth - 1) for _ in range(rng.randint(2, 3))
        )
        return And(children) if kind == 1 else Or(children)
    left = _random_sentence(rng, atoms, depth - 1)
    right = _random_sentence(rng, atoms, depth - 1)
    return Implies(left, right) if kind == 3 else Iff(left, right)


class TestMasks:
    """The bitmask evaluator against the per-world reference ``evaluate``."""

    def test_masks_match_evaluate(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(60):
            atoms = ("A", "B", "C", "D", "E")[: rng.randint(1, 5)]
            background = [_random_sentence(rng, atoms, 2) for _ in range(rng.randint(0, 2))]
            expect = [
                World(atoms, v)
                for v in itertools.product((False, True), repeat=len(atoms))
                if all(evaluate(t, World(atoms, v)) for t in background)
            ]
            if not expect:
                with pytest.raises(EmptyWorldSpaceError):
                    build_world_space(atoms, background)
                continue
            ws = build_world_space(atoms, background)
            assert ws.worlds == tuple(expect)
            assert ws.full_mask == (1 << len(expect)) - 1
            for _ in range(8):
                s = _random_sentence(rng, atoms, 3)
                holds = [i for i, w in enumerate(ws.worlds) if evaluate(s, w)]
                assert extension(s, ws) == frozenset(holds)
                assert extension_mask(s, ws) == sum(1 << i for i in holds)
                checked += 1
        assert checked > 300

    def test_wide_space_on_sampled_worlds(self):
        atoms = [f"x{i}" for i in range(16)]
        ws = build_world_space(atoms, [parse_sentence("(x0 -> x1) & !(x2 & x13)")])
        # the background rules out 1/4 of the x0, x1 values and 1/4 of the x2, x13
        assert len(ws) == 2**16 * 9 // 16
        rng = random.Random(16)
        sentences = [_random_sentence(rng, atoms, 4) for _ in range(10)]
        masks = [extension_mask(s, ws) for s in sentences]
        sample = sorted(rng.sample(range(len(ws)), 200))
        worlds = ws.worlds  # built on each access
        assert len(worlds) == len(ws)
        for i, j in zip(sample, sample[1:]):
            assert worlds[i].values < worlds[j].values
        for i in sample:
            w = worlds[i]
            assert evaluate(ws.background[0], w)
            for s, m in zip(sentences, masks):
                assert (m >> i & 1) == evaluate(s, w)

    def test_unknown_atom_names_every_one(self):
        ws = build_world_space(["A"])
        with pytest.raises(UnknownAtomError, match=r"\['B', 'C'\]"):
            extension_mask(Or((A, And((B, C)))), ws)

"""Dempster-Shafer structures, combination algebra, and representability."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpibounds import (
    FrameMappingError,
    KnowledgeBase,
    TotalConflictError,
    build_world_space,
    parse_kb,
)
from cpibounds.dempster import (
    Frame,
    LowerEnvelope,
    MassFunction,
    NotRepresentable,
    bel_from_mass,
    combine_evidence,
    dempster_combine,
    envelope_from_entailment,
    frame_mapping_from_kb,
    mass_from_bel,
    mass_functions_from_kb,
)

F = Fraction
ABC = Frame(("a", "b", "c"))


def random_mass(rng: random.Random, frame: Frame, focal_cap: int = 3) -> MassFunction:
    masks = rng.sample(range(1, frame.full_mask + 1), k=rng.randint(1, focal_cap))
    weights = [F(rng.randint(1, 8)) for _ in masks]
    total = sum(weights)
    return MassFunction(frame, {m: w / total for m, w in zip(masks, weights)})


@st.composite
def mass_functions(draw, frame=ABC):
    count = draw(st.integers(1, 4))
    masks = draw(
        st.lists(
            st.integers(1, frame.full_mask), min_size=count, max_size=count, unique=True
        )
    )
    weights = draw(
        st.lists(st.integers(1, 12), min_size=count, max_size=count)
    )
    total = sum(weights)
    return MassFunction(frame, {m: F(w, total) for m, w in zip(masks, weights)})


class TestMassFunction:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            MassFunction(ABC, {0b001: F(1, 2)})  # does not sum to 1
        with pytest.raises(ValueError):
            MassFunction(ABC, {0: F(1)})  # empty set carries mass
        with pytest.raises(ValueError):
            MassFunction(ABC, {0b001: F(3, 2), 0b010: F(-1, 2)})

    def test_vacuous_bel(self):
        bel = bel_from_mass(MassFunction.vacuous(ABC))
        for mask in ABC.subsets():
            assert bel.lower(mask) == (1 if mask == ABC.full_mask else 0)

    def test_bayesian_mass_is_additive(self):
        frame = Frame(("a", "b"))
        m = MassFunction.from_named(frame, {("a",): F(3, 10), ("b",): F(7, 10)})
        bel = bel_from_mass(m)
        assert bel.lower(frame.mask_of(["a"])) == F(3, 10)
        assert bel.lower(frame.full_mask) == 1
        for mask in frame.subsets():
            assert bel.lower(mask) == bel.upper(mask)  # additive: bel == pl

    def test_from_named_rejects_a_subset_named_twice(self):
        # ("a", "b") and ("b", "a") spell one subset
        for first, second in ((("a",), ("a",)), (("a", "b"), ("b", "a"))):
            with pytest.raises(ValueError, match="named twice"):
                MassFunction.from_named(ABC, [(first, F(1, 2)), (second, F(1, 2))])
            # the constructor checks its (mask, mass) pairs the same way
            masks = ABC.mask_of(first), ABC.mask_of(second)
            with pytest.raises(ValueError, match="named twice"):
                MassFunction(ABC, [(mask, F(1, 2)) for mask in masks])
        m = MassFunction.from_named(ABC, [(("a", "b"), F(1, 2)), (("c",), F(1, 2))])
        assert m.mass(ABC.mask_of(["b", "a"])) == F(1, 2)

    def test_partial_support_example(self):
        m = MassFunction.from_named(
            ABC, {("a", "b"): F(3, 5), ("a", "b", "c"): F(2, 5)}
        )
        bel = bel_from_mass(m)
        assert bel.lower(ABC.mask_of(["a"])) == 0
        assert bel.lower(ABC.mask_of(["a", "b"])) == F(3, 5)
        assert bel.upper(ABC.mask_of(["a"])) == 1


class TestMoebius:
    @given(mass_functions())
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, m):
        assert mass_from_bel(bel_from_mass(m)) == m

    def test_uniform_lower_is_bayesian(self):
        frame = Frame(("a", "b"))
        table = []
        for mask in frame.subsets():
            table.append(F(bin(mask).count("1"), frame.size))
        envelope = LowerEnvelope(frame, tuple(table))
        m = mass_from_bel(envelope)
        assert isinstance(m, MassFunction)
        assert m.focal() == [(0b01, F(1, 2)), (0b10, F(1, 2))]

    def test_counterexample_envelope_is_not_representable(self):
        # lower bounds 0.3 / 0.4 / 0.5 on the three pair-disjunctions of an
        # exclusive-exhaustive triple leave -0.2 on the full frame
        table = [F(0), F(0), F(0), F(3, 10), F(0), F(2, 5), F(1, 2), F(1)]
        envelope = LowerEnvelope(ABC, tuple(table))
        verdict = mass_from_bel(envelope)
        assert isinstance(verdict, NotRepresentable)
        assert verdict.subset == ABC.full_mask
        assert verdict.mass == F(-1, 5)

    @given(mass_functions())
    @settings(max_examples=80, deadline=None)
    def test_two_monotonicity(self, m):
        bel = bel_from_mass(m)
        for x, y in itertools.product(ABC.subsets(), repeat=2):
            assert bel.lower(x | y) + bel.lower(x & y) >= bel.lower(x) + bel.lower(y)

    @given(mass_functions())
    @settings(max_examples=80, deadline=None)
    def test_lower_plus_complement_at_most_one(self, m):
        bel = bel_from_mass(m)
        for mask in ABC.subsets():
            assert bel.lower(mask) + bel.lower(ABC.full_mask & ~mask) <= 1


class TestCombination:
    def test_vacuous_is_identity(self):
        rng = random.Random(2)
        for _ in range(20):
            m = random_mass(rng, ABC)
            combined, kappa = dempster_combine(m, MassFunction.vacuous(ABC))
            assert combined == m and kappa == 0

    def test_reinforcing_evidence(self):
        m1 = MassFunction.from_named(ABC, {("a",): F(3, 5), ("a", "b", "c"): F(2, 5)})
        m2 = MassFunction.from_named(ABC, {("a",): F(1, 2), ("a", "b", "c"): F(1, 2)})
        combined, kappa = dempster_combine(m1, m2)
        assert kappa == 0
        assert combined.mass(ABC.mask_of(["a"])) == F(4, 5)
        assert combined.mass(ABC.full_mask) == F(1, 5)

    def test_total_conflict(self):
        m1 = MassFunction.from_named(ABC, {("a",): 1})
        m2 = MassFunction.from_named(ABC, {("b",): 1})
        with pytest.raises(TotalConflictError):
            dempster_combine(m1, m2)

    def test_conflict_mass_reported(self):
        m1 = MassFunction.from_named(ABC, {("a",): F(1, 2), ("b",): F(1, 2)})
        m2 = MassFunction.from_named(ABC, {("a",): F(1, 2), ("c",): F(1, 2)})
        combined, kappa = dempster_combine(m1, m2)
        assert kappa == F(3, 4)
        assert combined.mass(ABC.mask_of(["a"])) == 1

    @given(mass_functions(), mass_functions())
    @settings(max_examples=100, deadline=None)
    def test_commutative(self, m1, m2):
        try:
            a, ka = dempster_combine(m1, m2)
        except TotalConflictError:
            with pytest.raises(TotalConflictError):
                dempster_combine(m2, m1)
            return
        b, kb = dempster_combine(m2, m1)
        assert a == b and ka == kb

    @given(mass_functions(), mass_functions(), mass_functions())
    @settings(max_examples=100, deadline=None)
    def test_associative(self, m1, m2, m3):
        try:
            left = dempster_combine(dempster_combine(m1, m2)[0], m3)[0]
            right = dempster_combine(m1, dempster_combine(m2, m3)[0])[0]
        except TotalConflictError:
            return
        assert left == right

    def test_fold_is_order_independent(self):
        rng = random.Random(12)
        masses = [random_mass(rng, ABC) for _ in range(3)]
        results = set()
        for perm in itertools.permutations(masses):
            combined, _ = combine_evidence(perm)
            results.add(tuple(combined.focal()))
        assert len(results) == 1

    def test_fold_identifies_offending_source(self):
        masses = [
            MassFunction.vacuous(ABC),
            MassFunction.from_named(ABC, {("a",): 1}),
            MassFunction.from_named(ABC, {("b",): 1}),
        ]
        with pytest.raises(TotalConflictError) as err:
            combine_evidence(masses)
        assert "source 3" in str(err.value)

    def test_single_source(self):
        m = MassFunction.vacuous(ABC)
        assert combine_evidence([m]) == (m, [])


EXCLUSIVE_TRIPLE = (
    "atom A B C\n"
    "background A | B | C\n"
    "background !(A & B)\nbackground !(A & C)\nbackground !(B & C)\n"
    "frame A B C\n"
)


class TestEnvelopeFromEntailment:
    def test_no_axioms_gives_vacuous_envelope(self):
        kb = parse_kb(EXCLUSIVE_TRIPLE)
        ws = build_world_space(kb.atoms, kb.background)
        envelope = envelope_from_entailment(kb, ws, frame_mapping_from_kb(kb))
        for mask in envelope.frame.subsets():
            expected = 1 if mask == envelope.frame.full_mask else 0
            assert envelope.lower(mask) == expected

    def test_point_singletons_give_additive_envelope(self):
        kb = parse_kb(EXCLUSIVE_TRIPLE + "P(A) = 0.2\nP(B) = 0.3\nP(C) = 0.5")
        ws = build_world_space(kb.atoms, kb.background)
        envelope = envelope_from_entailment(kb, ws, frame_mapping_from_kb(kb))
        frame = envelope.frame
        assert envelope.lower(frame.mask_of(["A"])) == F(1, 5)
        assert envelope.lower(frame.mask_of(["A", "B"])) == F(1, 2)
        m = mass_from_bel(envelope)
        assert isinstance(m, MassFunction)

    def test_paper_counterexample_lower_bounds(self):
        kb = parse_kb(
            EXCLUSIVE_TRIPLE
            + "0.3 <= P((A | B))\n0.4 <= P((A | C))\n0.5 <= P((B | C))"
        )
        ws = build_world_space(kb.atoms, kb.background)
        envelope = envelope_from_entailment(kb, ws, frame_mapping_from_kb(kb))
        frame = envelope.frame
        assert envelope.lower(frame.mask_of(["A", "B"])) == F(3, 10)
        assert envelope.lower(frame.mask_of(["A", "C"])) == F(2, 5)
        assert envelope.lower(frame.mask_of(["B", "C"])) == F(1, 2)
        for name in "ABC":
            assert envelope.lower(frame.mask_of([name])) == 0
        verdict = mass_from_bel(envelope)
        assert isinstance(verdict, NotRepresentable)
        assert verdict.mass == F(-1, 5) and verdict.subset == frame.full_mask

    def test_mapping_must_be_exclusive(self):
        kb = parse_kb("atom A B\nframe A B")  # no exclusivity background
        ws = build_world_space(kb.atoms)
        with pytest.raises(FrameMappingError):
            envelope_from_entailment(kb, ws, frame_mapping_from_kb(kb))

    def test_mapping_must_be_exhaustive(self):
        kb = parse_kb("atom A B\nbackground !(A & B)\nframe A B")
        ws = build_world_space(kb.atoms, kb.background)
        with pytest.raises(FrameMappingError):
            envelope_from_entailment(kb, ws, frame_mapping_from_kb(kb))


class TestKbMassSources:
    def test_sources_built_in_order(self):
        kb = parse_kb("frame a b\nmass m1 {a}: 0.6, {a, b}: 0.4\nmass m2 {b}: 1")
        sources = mass_functions_from_kb(kb)
        assert list(sources) == ["m1", "m2"]
        assert sources["m1"].mass(0b01) == F(3, 5)

    def test_bad_sum_rejected(self):
        kb = parse_kb("frame a b\nmass m1 {a}: 0.6")
        with pytest.raises(ValueError):
            mass_functions_from_kb(kb)

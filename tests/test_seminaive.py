"""Tests for the semi-naive chase engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase import satisfies_all, standard_chase
from repro.chase.seminaive import seminaive_chase
from repro.core import Atom, Const, Instance, Null, RelationSymbol
from repro.dependencies import parse_dependencies
from repro.homomorphism import hom_equivalent
from repro.logic import parse_instance
from repro.obs.provenance import recording

M = RelationSymbol("M", 2)
N = RelationSymbol("N", 2)


class TestAgreementWithStandard:
    def test_simple_tgd(self):
        deps = parse_dependencies(["E(x, y) -> exists z . F(y, z)"])
        source = parse_instance("E('a','b'), E('b','c')")
        semi = seminaive_chase(source, deps)
        full = standard_chase(source, deps)
        assert semi.successful and full.successful
        assert hom_equivalent(semi.instance, full.instance)

    def test_recursive_full_tgd(self):
        deps = parse_dependencies(
            ["E(x, y) -> R(x, y)", "R(x, y) & E(y, z) -> R(x, z)"]
        )
        atoms = ", ".join(f"E('v{i}','v{i+1}')" for i in range(8))
        source = parse_instance(atoms)
        semi = seminaive_chase(source, deps)
        full = standard_chase(source, deps)
        assert semi.successful
        # Transitive closure of a path: n(n+1)/2 pairs.
        assert semi.instance.count_of("R") == 8 * 9 // 2
        assert semi.instance.atoms_of("R") == full.instance.atoms_of("R")

    def test_egd_merging(self):
        deps = parse_dependencies(
            [
                "E(x, y) -> exists z . F(x, z)",
                "G(x, y) -> F(x, y)",
                "F(x, y) & F(x, z) -> y = z",
            ]
        )
        source = parse_instance("E('a','b'), G('a','c')")
        semi = seminaive_chase(source, deps)
        assert semi.successful
        assert semi.instance.atoms_of("F") == frozenset(
            {Atom(RelationSymbol("F", 2), (Const("a"), Const("c")))}
        )

    def test_egd_failure(self):
        deps = parse_dependencies(["F(x, y) & F(x, z) -> y = z"])
        source = parse_instance("F('a','b'), F('a','c')")
        assert seminaive_chase(source, deps).failed

    def test_divergence(self):
        deps = parse_dependencies(["E(x, y) -> exists z . E(y, z)"])
        outcome = seminaive_chase(
            parse_instance("E('a','b')"), deps, max_steps=40
        )
        assert outcome.diverged

    def test_merge_reactivates_matches(self):
        """After an egd merge, the rewritten atoms must re-seed the
        delta: the H-rule fires on the merged F-atom."""
        deps = parse_dependencies(
            [
                "E(x, y) -> exists z . F(x, z)",
                "G(x, y) -> F(x, y)",
                "F(x, y) & F(x, z) -> y = z",
                "F(x, y) & K(y) -> H(x)",
            ]
        )
        source = parse_instance("E('a','b'), G('a','c'), K('c')")
        outcome = seminaive_chase(source, deps)
        assert outcome.successful
        assert outcome.instance.count_of("H") == 1

    def test_stale_delta_after_merge(self):
        """A delta atom an egd merge rewrote away seeds no match.

        ``R(a,⊥0)`` is in the delta when ``⊥0 := c`` rewrites it; the
        pass after the merge must not fire ``R(x,y) → S(y)`` on it and
        keep ``S(⊥0)`` for the merged-away null.
        """
        source = parse_instance("P('a'), Q('a'), T('a','c')")
        semi = seminaive_chase(source, STALE_DEPS)
        full = standard_chase(source, STALE_DEPS)
        assert semi.successful and full.successful
        assert semi.instance == full.instance
        assert semi.instance.atoms_of("S") == frozenset(
            {Atom(RelationSymbol("S", 1), (Const("c"),))}
        )

    def test_example_2_1(self, setting_2_1, source_2_1):
        deps = list(setting_2_1.all_dependencies)
        semi = seminaive_chase(source_2_1, deps)
        full = standard_chase(source_2_1, deps)
        assert semi.successful
        assert satisfies_all(semi.instance, deps)
        assert hom_equivalent(semi.instance, full.instance)

    def test_trace(self):
        deps = parse_dependencies(["E(x, y) -> exists z . F(y, z)"])
        with recording() as ledger:
            seminaive_chase(parse_instance("E('a','b')"), deps)
        assert [step.kind for step in ledger.steps] == ["source", "tgd"]


class TestStepBudget:
    """The budget is tested right before a firing or a merge, so a
    chase that fits its budget exactly succeeds."""

    @pytest.mark.parametrize("engine", [seminaive_chase, standard_chase])
    def test_firings_that_use_up_the_budget(self, engine):
        deps = parse_dependencies(["E(x, y) -> P(x)"])
        source = parse_instance("E('a','b'), E('a','c')")
        outcome = engine(source, deps, max_steps=1)
        assert outcome.successful
        assert outcome.steps == 1

    @pytest.mark.parametrize("engine", [seminaive_chase, standard_chase])
    def test_nothing_to_do_with_no_budget(self, engine):
        deps = parse_dependencies(
            ["E(x, y) -> exists z . E(y, z)", "E(x, y) & E(x, z) -> y = z"]
        )
        outcome = engine(Instance(), deps, max_steps=0)
        assert outcome.successful
        assert outcome.steps == 0

    @pytest.mark.parametrize("engine", [seminaive_chase, standard_chase])
    def test_a_merge_past_the_budget_diverges(self, engine):
        deps = parse_dependencies(["F(x, y) & F(x, z) -> y = z"])
        source = Instance(
            [
                Atom(RelationSymbol("F", 2), (Const("a"), Null(0))),
                Atom(RelationSymbol("F", 2), (Const("a"), Const("b"))),
            ]
        )
        assert engine(source, deps, max_steps=0).diverged
        outcome = engine(source, deps, max_steps=1)
        assert outcome.successful
        assert outcome.steps == 1


STALE_DEPS = parse_dependencies(
    [
        "P(x) -> exists y . R(x, y)",
        "Q(x) -> exists y . R(x, y)",
        "T(x, y) -> R(x, y)",
        "R(x, y) & R(x, z) -> y = z",
        "R(x, y) -> S(y)",
    ]
)


@st.composite
def random_sources(draw):
    pool = [Const(name) for name in "abcd"]
    atoms = []
    for relation in (M, N):
        pairs = draw(
            st.lists(
                st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                max_size=4,
            )
        )
        atoms.extend(Atom(relation, pair) for pair in pairs)
    return Instance(atoms)


DEPS = parse_dependencies(
    [
        "M(x, y) -> E(x, y)",
        "N(x, y) -> exists z1, z2 . E(x, z1) & F(x, z2)",
        "F(y, x) -> exists z . G(x, z)",
        "F(x, y) & F(x, z) -> y = z",
    ]
)


@given(random_sources())
@settings(max_examples=25, deadline=None)
def test_seminaive_agrees_with_standard_on_random_inputs(source):
    semi = seminaive_chase(source, DEPS)
    full = standard_chase(source, DEPS)
    assert semi.status == full.status
    if semi.successful:
        assert satisfies_all(semi.instance, DEPS)
        assert hom_equivalent(semi.instance, full.instance)


@st.composite
def stale_delta_sources(draw):
    pool = [Const(name) for name in "abc"]
    unary = [RelationSymbol("P", 1), RelationSymbol("Q", 1)]
    atoms = [
        Atom(relation, (value,))
        for relation in unary
        for value in draw(st.lists(st.sampled_from(pool), max_size=3))
    ]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
            max_size=3,
        )
    )
    atoms.extend(Atom(RelationSymbol("T", 2), pair) for pair in pairs)
    return Instance(atoms)


def _merged_away(ledger):
    return {step.merged[0] for step in ledger.steps if step.kind == "egd"}


@pytest.mark.parametrize(
    "deps, sources",
    [(DEPS, random_sources()), (STALE_DEPS, stale_delta_sources())],
    ids=["example_2_1_shape", "stale_delta"],
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_seminaive_keeps_no_merged_away_null(deps, sources, data):
    """Parity with the standard chase, and no null an egd merged away
    survives: hom-equivalence alone cannot see a stale ``S(⊥0)``."""
    source = data.draw(sources)
    with recording() as ledger:
        semi = seminaive_chase(source, deps)
    full = standard_chase(source, deps)
    assert semi.status == full.status
    if semi.successful:
        assert satisfies_all(semi.instance, deps)
        assert hom_equivalent(semi.instance, full.instance)
        assert not _merged_away(ledger) & semi.instance.nulls()

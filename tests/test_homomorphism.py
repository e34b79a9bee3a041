"""Tests for homomorphism search and core computation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Atom, Const, Instance, Null, RelationSymbol, atom, isomorphic
from repro.homomorphism import (
    core,
    endomorphisms,
    find_homomorphism,
    has_homomorphism,
    hom_equivalent,
    homomorphisms,
    is_core,
    is_homomorphism,
    is_retract_of,
    retracts_to,
)
from repro.logic import parse_instance
from repro.logic.matching import exists_match
from repro.obs import counter

E = RelationSymbol("E", 2)
P = RelationSymbol("P", 1)


class TestHomomorphismSearch:
    def test_identity_always_exists(self):
        inst = parse_instance("E('a', #1), E(#1, #2)")
        mapping = find_homomorphism(inst, inst)
        assert mapping is not None
        assert is_homomorphism(mapping, inst, inst)

    def test_null_to_constant(self):
        small = parse_instance("E('a', #1)")
        big = parse_instance("E('a', 'b')")
        mapping = find_homomorphism(small, big)
        assert mapping == {Null(1): Const("b")}

    def test_constants_are_rigid(self):
        left = parse_instance("E('a', 'b')")
        right = parse_instance("E('c', 'd')")
        assert not has_homomorphism(left, right)

    def test_no_homomorphism_structural(self):
        loop = parse_instance("E(#1, #1)")
        edge = parse_instance("E(#1, #2)")
        assert has_homomorphism(edge, loop)
        assert not has_homomorphism(loop, edge)

    def test_enumeration_counts(self):
        # #1 and #2 can each go to b or c: 4 homomorphisms.
        source = parse_instance("E('a', #1), E('a', #2)")
        target = parse_instance("E('a', 'b'), E('a', 'c')")
        assert len(list(homomorphisms(source, target))) == 4

    def test_suspended_enumeration_keeps_its_scope_to_itself(self):
        # A consumer holding homomorphisms() suspended may match other
        # patterns; that work is not the enumeration's and is not
        # charged to ``hom``.  The enumeration's own resumed search is.
        source = parse_instance("E('a', #1), E('a', #2)")
        target = parse_instance("E('a', 'b'), E('a', 'c')")
        candidates = counter("hom.candidates")
        enumeration = homomorphisms(source, target)
        next(enumeration)
        before = candidates.value
        other = parse_instance("E('a', 'b')")
        assert exists_match(list(other), other)
        assert candidates.value == before
        assert len(list(enumeration)) == 3
        assert candidates.value > before

    def test_empty_source(self):
        assert has_homomorphism(Instance(), parse_instance("P('a')"))

    def test_hom_equivalence(self):
        canonical = parse_instance("E('a','b'), E('a',#0), F('a',#1), G(#1,#2)")
        smaller = parse_instance("E('a','b'), F('a',#1), G(#1,#2)")
        assert hom_equivalent(canonical, smaller)

    def test_endomorphisms_include_identity(self):
        inst = parse_instance("E('a', #1)")
        results = list(endomorphisms(inst))
        assert {Null(1): Null(1)} in results

    def test_is_homomorphism_rejects_constant_moves(self):
        inst = parse_instance("P('a')")
        assert not is_homomorphism({Const("a"): Const("b")}, inst, inst)

    def test_composition_is_homomorphism(self):
        a = parse_instance("E('a', #1)")
        b = parse_instance("E('a', #2), E(#2, 'c')")
        c = parse_instance("E('a', 'b'), E('b', 'c')")
        ab = find_homomorphism(a, b)
        bc = find_homomorphism(b, c)
        composed = {
            key: bc.get(value, value) for key, value in ab.items()
        }
        assert is_homomorphism(composed, a, c)


class TestCore:
    def test_fold_redundant_null(self):
        inst = parse_instance("E('a', #1), E('a', 'b')")
        assert core(inst) == parse_instance("E('a', 'b')")

    def test_core_of_core_is_identity(self):
        inst = parse_instance("E('a', #1), E(#1, #2), E('a', 'b')")
        folded = core(inst)
        assert core(folded) == folded

    def test_ground_instance_is_its_own_core(self):
        inst = parse_instance("E('a','b'), E('b','c')")
        assert core(inst) == inst
        assert is_core(inst)

    def test_paper_example_core(self, setting_2_1, source_2_1, solutions_2_1):
        canonical = setting_2_1.canonical_universal_solution(source_2_1)
        _, _, t3 = solutions_2_1
        assert isomorphic(core(canonical), t3)

    def test_cycle_core(self):
        # Two parallel 2-cycles of nulls fold into one.
        inst = parse_instance("E(#1, #2), E(#2, #1), E(#3, #4), E(#4, #3)")
        folded = core(inst)
        assert len(folded) == 2

    def test_odd_cycle_does_not_fold_into_smaller(self):
        triangle = parse_instance("E(#1,#2), E(#2,#3), E(#3,#1)")
        assert len(core(triangle)) == 3

    def test_retract_relation(self):
        inst = parse_instance("E('a', #1), E('a', 'b')")
        folded = core(inst)
        assert is_retract_of(folded, inst)
        assert retracts_to(inst, folded)

    def test_core_is_subinstance_image(self):
        inst = parse_instance("E('a', #1), E(#1, #2), E('a', 'b'), E('b', 'c')")
        folded = core(inst)
        assert folded.issubset(inst) or all(
            a.nulls() == frozenset() for a in folded
        )
        assert has_homomorphism(inst, folded)


def small_instances():
    values = st.one_of(
        st.sampled_from([Const("a"), Const("b")]),
        st.integers(min_value=0, max_value=2).map(Null),
    )
    return st.lists(
        st.tuples(values, values).map(lambda pair: Atom(E, pair)),
        min_size=0,
        max_size=6,
    ).map(Instance)


@given(small_instances())
@settings(max_examples=40, deadline=None)
def test_core_is_hom_equivalent_retract(inst):
    folded = core(inst)
    assert has_homomorphism(inst, folded)
    assert has_homomorphism(folded, inst)
    assert is_core(folded)


@given(small_instances(), small_instances())
@settings(max_examples=40, deadline=None)
def test_hom_search_soundness(left, right):
    mapping = find_homomorphism(left, right)
    if mapping is not None:
        assert is_homomorphism(mapping, left, right)

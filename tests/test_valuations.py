"""Tests for valuations, Rep_D, and □Q / ◇Q."""

import pytest

import repro.obs as obs
from repro.answering.valuations import (
    certain_and_maybe_on,
    certain_holds_on,
    certain_on,
    count_valuations,
    default_anchors,
    fresh_constants,
    maybe_holds_on,
    maybe_on,
    rep,
    valuations,
)
from repro.core import Const, Instance, Null, atom, RelationSymbol
from repro.dependencies import parse_dependencies
from repro.logic import parse_instance, parse_query

E = RelationSymbol("E", 2)


class TestValuationEnumeration:
    def test_ground_instance_single_valuation(self):
        inst = parse_instance("E('a','b')")
        assert list(valuations(inst)) == [{}]

    def test_single_null_valuations(self):
        inst = parse_instance("E('a', #1)")
        images = {v[Null(1)] for v in valuations(inst)}
        # anchor 'a' plus one fresh constant
        assert Const("a") in images
        assert len(images) == 2

    def test_partition_structure(self):
        inst = parse_instance("E(#1, #2)")
        results = list(valuations(inst, anchors=()))
        # Two nulls, no anchors: partitions of a 2-set = 2.
        assert len(results) == 2
        patterns = {
            (v[Null(1)] == v[Null(2)]) for v in results
        }
        assert patterns == {True, False}

    def test_count_matches_enumeration(self):
        inst = parse_instance("E(#1, #2), E(#2, #3)")
        enumerated = len(list(valuations(inst, anchors=[Const("a")])))
        assert enumerated == count_valuations(3, 1)

    def test_bell_numbers_with_no_anchors(self):
        assert count_valuations(1, 0) == 1
        assert count_valuations(2, 0) == 2
        assert count_valuations(3, 0) == 5
        assert count_valuations(4, 0) == 15  # Bell numbers

    def test_fresh_constants_avoid(self):
        fresh = fresh_constants(2, [Const("_c0")])
        assert Const("_c0") not in fresh
        assert len(set(fresh)) == 2

    def test_default_anchors(self):
        inst = parse_instance("E('a', #1)")
        assert default_anchors(inst) == [Const("a")]


class TestRep:
    def test_egd_filters_worlds(self):
        # T = {E(a,#1), E(a,#2)} with a key on E: worlds must merge.
        inst = parse_instance("E('a', #1), E('a', #2)")
        deps = parse_dependencies(["E(x, y) & E(x, z) -> y = z"])
        worlds = list(rep(inst, deps))
        assert worlds
        for world in worlds:
            assert world.count_of("E") == 1

    def test_no_dependencies_all_worlds(self):
        inst = parse_instance("E('a', #1)")
        assert len(list(rep(inst, []))) == 2

    def test_full_tgd_filters_worlds(self):
        """The closed-world reading of a full target tgd: a valuation
        may not send a null outside the Bool relation of T."""
        inst = parse_instance("V('x', #1), Bool('0'), Bool('1')")
        deps = parse_dependencies(["V(v, t) -> Bool(t)"])
        worlds = list(rep(inst, deps))
        values = {next(iter(w.atoms_of("V"))).args[1] for w in worlds}
        assert values == {Const("0"), Const("1")}


class TestBoxAndDiamond:
    def test_certain_on_ground(self):
        inst = parse_instance("E('a','b')")
        query = parse_query("Q(x) :- E(x, y)")
        assert certain_on(query, inst) == frozenset({(Const("a"),)})

    def test_certain_kills_null_dependent_answers(self):
        inst = parse_instance("E('a', #1)")
        query = parse_query("Q(y) :- E('a', y)")
        # #1 could be any constant: no certain answer about y's value...
        # but every world has SOME answer, so Q(x) :- E(x,y) is certain.
        assert certain_on(query, inst) == frozenset()
        head_query = parse_query("Q(x) :- E(x, y)")
        assert certain_on(head_query, inst) == frozenset({(Const("a"),)})

    def test_maybe_contains_anchor_answers(self):
        inst = parse_instance("E('a', #1)")
        query = parse_query("Q(y) :- E('a', y)")
        answers = maybe_on(query, inst)
        assert (Const("a"),) in answers  # the world v(#1) = a

    def test_boolean_certain_inequality(self):
        # E(a,#1), E(b,#2): is x≠y certain for E(x,·),E(y,·)? yes: a≠b.
        inst = parse_instance("E('a', #1), E('b', #2)")
        query = parse_query("Q() :- E(x, u), E(y, w), x != y")
        assert certain_on(query, inst)

    def test_boolean_not_certain_when_nulls_may_merge(self):
        inst = parse_instance("E('a', #1), E('a', #2)")
        query = parse_query("Q() :- E(x, u), E(x, w), u != w")
        # The world #1 = #2 has no distinct pair.
        assert not certain_on(query, inst)
        assert maybe_on(query, inst)

    def test_query_constants_join_pool(self):
        inst = parse_instance("P(#1)")
        query = parse_query("Q() :- P('q')")
        # some world maps #1 to q
        assert maybe_on(query, inst)
        assert not certain_on(query, inst)

    def test_certain_holds_on_membership(self):
        inst = parse_instance("E('a', #1)")
        query = parse_query("Q(x) :- E(x, y)")
        assert certain_holds_on(query, (Const("a"),), inst)
        assert not certain_holds_on(query, (Const("z"),), inst)

    def test_maybe_holds_on_membership(self):
        inst = parse_instance("E('a', #1)")
        query = parse_query("Q(y) :- E('a', y)")
        assert maybe_holds_on(query, (Const("zebra"),), inst)

    def test_egd_constrained_certain(self):
        """With a key egd, only merged worlds remain: P and R sharing a
        value becomes certain."""
        inst = parse_instance("E('a', #1), E('a', #2), P(#1), R(#2)")
        deps = parse_dependencies(["E(x, y) & E(x, z) -> y = z"])
        query = parse_query("Q() :- P(w), R(w)")
        assert certain_on(query, inst, deps)
        assert not certain_on(query, inst)  # without the egd filter


class TestJointWalk:
    """``certain_and_maybe_on`` walks Rep_D(T) once for □Q and ◇Q."""

    CASES = (
        ("E('a', #1)", "Q(y) :- E('a', y)", ()),
        ("E('a', #1), E('b', #2)", "Q(x, y) :- E(x, y)", ()),
        (
            "E('a', #1), E('a', #2), P(#1), R(#2)",
            "Q(w) :- P(w), R(w)",
            ("E(x, y) & E(x, z) -> y = z",),
        ),
        ("P(#1), P(#2), P('c')", "Q() :- P('q')", ()),
    )

    @pytest.mark.parametrize("text,query_text,deps", CASES)
    def test_equals_separate_walks(self, text, query_text, deps):
        inst = parse_instance(text)
        query = parse_query(query_text)
        dependencies = parse_dependencies(list(deps))
        assert certain_and_maybe_on(query, inst, dependencies) == (
            certain_on(query, inst, dependencies),
            maybe_on(query, inst, dependencies),
        )

    def test_one_walk_counts_each_world_once(self):
        inst = parse_instance("E('a', #1), E('b', #2)")
        query = parse_query("Q(x) :- E(x, y)")
        obs.reset()
        certain_and_maybe_on(query, inst)
        counters = obs.snapshot()["counters"]
        total = count_valuations(2, 2)
        assert counters["answering.valuations_enumerated"] == total
        assert counters["answering.worlds_visited"] == total

    def test_serial_certain_keeps_its_early_exit(self):
        # Worlds (#1, #2) -> (a, a) then (a, c0): the intersection of
        # Q(x, y) :- E(x, y) is empty after two of the five valuations.
        inst = parse_instance("E(#1, #2), F('a')")
        query = parse_query("Q(x, y) :- E(x, y)")
        obs.reset()
        assert certain_on(query, inst) == frozenset()
        assert obs.snapshot()["counters"][
            "answering.valuations_enumerated"
        ] == 2
        obs.reset()
        assert len(maybe_on(query, inst)) == count_valuations(2, 1)
        assert obs.snapshot()["counters"][
            "answering.valuations_enumerated"
        ] == count_valuations(2, 1)

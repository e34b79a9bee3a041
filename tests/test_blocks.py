"""Tests for Gaifman blocks and blockwise core computation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Atom, Const, Instance, Null, RelationSymbol, isomorphic
from repro.homomorphism import core, fold_step
from repro.homomorphism.blocks import (
    block_atoms,
    block_index,
    block_statistics,
    blockwise_core,
    minimize_block,
    null_blocks,
)
from repro.logic import parse_instance
from repro.obs.provenance import recording

E = RelationSymbol("E", 2)


class TestBlocks:
    def test_disjoint_nulls_separate_blocks(self):
        inst = parse_instance("E('a', #1), E('b', #2)")
        blocks = null_blocks(inst)
        assert len(blocks) == 2
        assert {frozenset({Null(1)}), frozenset({Null(2)})} == set(blocks)

    def test_cooccurrence_merges(self):
        inst = parse_instance("E(#1, #2), E(#2, #3), E('a', #4)")
        blocks = null_blocks(inst)
        assert frozenset({Null(1), Null(2), Null(3)}) in blocks
        assert frozenset({Null(4)}) in blocks

    def test_ground_instance_has_no_blocks(self):
        assert null_blocks(parse_instance("E('a','b')")) == []

    def test_block_atoms(self):
        inst = parse_instance("E(#1, #2), E('a', 'b'), E('a', #3)")
        blocks = null_blocks(inst)
        first = next(b for b in blocks if Null(1) in b)
        owned = block_atoms(inst, first)
        assert len(owned) == 1

    def test_statistics(self):
        inst = parse_instance("E(#1, #2), E('a', #3)")
        stats = block_statistics(inst)
        assert stats["blocks"] == 2
        assert stats["largest"] == 2

    def test_statistics_empty(self):
        assert block_statistics(Instance())["blocks"] == 0


class TestBlockwiseCore:
    def test_agrees_on_paper_example(self, setting_2_1, source_2_1):
        canonical = setting_2_1.canonical_universal_solution(source_2_1)
        assert isomorphic(blockwise_core(canonical), core(canonical))

    def test_simple_fold(self):
        inst = parse_instance("E('a', #1), E('a', 'b')")
        assert blockwise_core(inst) == parse_instance("E('a', 'b')")

    def test_cross_block_fold(self):
        # #1's block folds onto #2's block (or vice versa).
        inst = parse_instance("E('a', #1), E('a', #2), E(#2, 'b')")
        folded = blockwise_core(inst)
        assert len(folded) == 2
        assert isomorphic(folded, core(inst))

    def test_ground_instance_untouched(self):
        inst = parse_instance("E('a','b'), E('b','c')")
        assert blockwise_core(inst) == inst

    def test_result_is_core(self):
        inst = parse_instance(
            "E('a', #1), E(#1, #2), E('a', 'b'), E('b', 'c'), E('q', #3)"
        )
        from repro.homomorphism import is_core

        assert is_core(blockwise_core(inst))


class TestMinimizeBlock:
    def test_input_instance_is_never_mutated(self):
        # The kernel works in place on the caller's working copy; the
        # public entry points take that copy, never touching the input.
        from repro.homomorphism import fold_step

        inst = parse_instance("E('a', #1), E('a', 'b')")
        snapshot = set(inst.sorted_atoms())
        assert blockwise_core(inst) == parse_instance("E('a', 'b')")
        assert fold_step(inst) is not None
        assert set(inst.sorted_atoms()) == snapshot

    def test_folds_in_place_and_reports_the_fold(self):
        inst = parse_instance("E('a', #1), E('a', 'b'), E('c', #2)")
        first = block_index(inst)[0]
        with recording() as ledger:
            folded, crossed = minimize_block(inst, first)
        assert folded
        assert not crossed
        [step] = ledger.steps
        assert step.kind == "retract"
        assert step.mapping == ((Null(1), Const("b")),)
        assert step.dropped == (Atom(E, (Const("a"), Null(1))),)
        # Only the folded block's atom left; the other block is intact.
        assert inst == parse_instance("E('a', 'b'), E('c', #2)")

    def test_cross_block_fold_is_reported(self):
        inst = parse_instance("E('a', #1), E('a', #2), E(#2, 'b')")
        first = block_index(inst)[0]
        assert first == [Atom(E, (Const("a"), Null(1)))]
        with recording() as ledger:
            folded, crossed = minimize_block(inst, first)
        assert folded
        [step] = ledger.steps
        assert step.mapping == ((Null(1), Null(2)),)
        assert crossed
        assert len(inst) == 2

    def test_reports_no_fold_when_block_is_minimal(self):
        inst = parse_instance("E('a', #1)")
        assert minimize_block(inst, block_index(inst)[0]) == (False, False)
        assert inst == parse_instance("E('a', #1)")

    def test_pattern_cache_reuse_is_counted(self):
        import repro.obs as obs

        obs.reset()
        # Distinctive constants guarantee a cache key no earlier test
        # populated; the second pass over the unchanged block must hit.
        inst = parse_instance("E('reuse_probe', #1), E(#1, 'reuse_probe')")
        owned = block_index(inst)[0]
        minimize_block(inst, owned)
        before = obs.counter("core.block_pattern_reuse").value
        minimize_block(inst, owned)
        assert obs.counter("core.block_pattern_reuse").value > before
        obs.reset()


class TestBlockIndex:
    def test_matches_block_atoms_per_block(self):
        inst = parse_instance(
            "E(#1, #2), E(#2, #3), E('a', #4), E('a', 'b'), E(#4, #4)"
        )
        assert block_index(inst) == [
            block_atoms(inst, block) for block in null_blocks(inst)
        ]

    def test_ground_instance_has_no_entries(self):
        assert block_index(parse_instance("E('a','b')")) == []


def small_instances():
    values = st.one_of(
        st.sampled_from([Const("a"), Const("b")]),
        st.integers(min_value=0, max_value=3).map(Null),
    )
    return st.lists(
        st.tuples(values, values).map(lambda pair: Atom(E, pair)),
        max_size=7,
    ).map(Instance)


@given(small_instances())
@settings(max_examples=60, deadline=None)
def test_blockwise_core_equals_global_core(inst):
    result = blockwise_core(inst)
    assert isomorphic(result, core(inst))
    # blockwise_core does not run this certificate itself.
    assert fold_step(result) is None

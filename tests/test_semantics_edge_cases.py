"""Edge cases of the answering layer."""

import pytest

from repro.answering import NoCwaSolutionError, answers_over_space
from repro.answering.semantics import _cansol_applies
from repro.core import Const, Instance, Schema
from repro.exchange import DataExchangeSetting
from repro.logic import parse_instance, parse_query


class TestCansolApplies:
    def test_no_target_deps(self):
        setting = DataExchangeSetting.from_strings(
            Schema.of(P=1), Schema.of(Q=1), ["P(x) -> Q(x)"]
        )
        assert _cansol_applies(setting)

    def test_egds_only(self, setting_egd_only):
        assert _cansol_applies(setting_egd_only)

    def test_full_tgds(self, setting_full_tgd):
        assert _cansol_applies(setting_full_tgd)

    def test_existential_target_tgd(self, setting_2_1):
        assert not _cansol_applies(setting_2_1)


class TestAnswersOverSpace:
    @pytest.mark.parametrize("mode", ["maybe_box", "certain ", "", "MAYBE"])
    def test_unknown_mode_raises(self, mode):
        from repro.answering.semantics import SEMANTICS_NAMES
        from repro.core.errors import ReproError

        query = parse_query("Q(x) :- E(x, y)")
        solution = parse_instance("E('a','b')")
        with pytest.raises(ReproError) as raised:
            answers_over_space(query, [solution], [], mode)
        assert str(SEMANTICS_NAMES) in str(raised.value)

    def test_empty_space_raises(self):
        query = parse_query("Q(x) :- E(x, y)")
        with pytest.raises(NoCwaSolutionError):
            answers_over_space(query, [], [], "certain")

    def test_single_solution_space(self):
        query = parse_query("Q(x) :- E(x, y)")
        solution = parse_instance("E('a','b')")
        for mode in ("certain", "potential_certain", "persistent_maybe", "maybe"):
            assert answers_over_space(query, [solution], [], mode) == frozenset(
                {(Const("a"),)}
            )

    def test_union_vs_intersection(self):
        query = parse_query("Q(x) :- E(x, y)")
        first = parse_instance("E('a','b')")
        second = parse_instance("E('a','b'), E('c','d')")
        certain = answers_over_space(query, [first, second], [], "certain")
        potential = answers_over_space(
            query, [first, second], [], "potential_certain"
        )
        assert certain == frozenset({(Const("a"),)})
        assert potential == frozenset({(Const("a"),), (Const("c"),)})


class TestEmptySourceAnswering:
    def test_all_semantics_empty(self, setting_2_1):
        from repro.answering import all_four_semantics

        query = parse_query("Q(x) :- E(x, y)")
        results = all_four_semantics(setting_2_1, Instance(), query)
        assert all(answers == frozenset() for answers in results.values())

    def test_boolean_query_on_empty(self, setting_2_1):
        from repro.answering import certain_answers

        query = parse_query("Q() :- E(x, y)")
        assert not certain_answers(setting_2_1, Instance(), query)


class TestConstantsInQueries:
    def test_query_constant_absent_from_target(self, setting_2_1, source_2_1):
        from repro.answering import certain_answers, maybe_answers

        query = parse_query("Q() :- E('zzz', y)")
        assert not certain_answers(setting_2_1, source_2_1, query)
        # No E-atom has an unknown first component: not even maybe.
        assert not maybe_answers(setting_2_1, source_2_1, query)

    def test_maybe_through_null_position(self, setting_2_1, source_2_1):
        from repro.answering import certain_answers, maybe_answers

        # F(a, ⊥): the witness could be 'zzz'.
        query = parse_query("Q() :- F('a', 'zzz')")
        assert not certain_answers(setting_2_1, source_2_1, query)
        assert maybe_answers(setting_2_1, source_2_1, query)


class TestGenericWitnesses:
    """◇ answer sets report constants outside the anchor set as ``_cN``."""

    @pytest.fixture
    def setting(self):
        return DataExchangeSetting.from_strings(
            Schema.of(S=2), Schema.of(T=2), ["S(x, y) -> exists z . T(x, z)"]
        )

    def test_answer_sets_hold_a_witness_not_b(self, setting):
        from repro.answering import maybe_answers, persistent_maybe_answers

        source = parse_instance("S('a','b')")
        query = parse_query("Q(y) :- T(x, y)")
        expected = frozenset({(Const("a"),), (Const("_c0"),)})
        assert maybe_answers(setting, source, query) == expected
        assert persistent_maybe_answers(setting, source, query) == expected
        assert (Const("b"),) not in expected

    def test_languages_accept_b(self, setting):
        from repro.answering.decision import (
            maybe_language,
            persistent_maybe_language,
        )

        source = parse_instance("S('a','b')")
        query = parse_query("Q(y) :- T(x, y)")
        assert maybe_language(setting, query)(source, (Const("b"),))
        assert persistent_maybe_language(setting, query)(source, (Const("b"),))

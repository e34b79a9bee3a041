"""Tests for the L_answers(D, Q) decision-problem wrappers (Section 7.2)."""

import pytest

from repro.answering import (
    AnswerLanguage,
    NoCwaSolutionError,
    certain_language,
    maybe_language,
    persistent_maybe_language,
    potential_certain_language,
)
from repro.core import Const, Schema
from repro.exchange import DataExchangeSetting
from repro.logic import parse_instance, parse_query


class TestMembership:
    def test_certain_membership(self, setting_2_1, source_2_1):
        language = certain_language(
            setting_2_1, parse_query("Q(x, y) :- E(x, y)")
        )
        assert language(source_2_1, (Const("a"), Const("b")))
        assert not language(source_2_1, (Const("b"), Const("a")))

    def test_boolean_membership(self, setting_2_1, source_2_1):
        language = certain_language(
            setting_2_1, parse_query("Q() :- F('a', u), G(u, w)")
        )
        assert language(source_2_1, ())

    def test_arity_checked(self, setting_2_1, source_2_1):
        language = certain_language(
            setting_2_1, parse_query("Q(x) :- E(x, y)")
        )
        with pytest.raises(ValueError):
            language(source_2_1, (Const("a"), Const("b")))

    def test_unknown_semantics_rejected(self, setting_2_1):
        with pytest.raises(ValueError):
            AnswerLanguage(
                setting_2_1, parse_query("Q(x) :- E(x, y)"), "sometimes"
            )

    def test_maybe_membership(self, setting_2_1, source_2_1):
        # The F-witness of a might be any constant, e.g. 'q'; this
        # persists in every CWA-solution (each has an F(a, ⊥) atom).
        query = parse_query("Q(y) :- F('a', y)")
        language = persistent_maybe_language(setting_2_1, query)
        assert language(source_2_1, (Const("q"),))
        certain = certain_language(setting_2_1, query)
        assert not certain(source_2_1, (Const("q"),))

    def test_maybe_diamond_membership(self, setting_2_1, source_2_1):
        # E(a, ⊥) exists in T2 but folds away in the core: 'q' is a
        # maybe◇ answer but NOT persistent (maybe□).
        query = parse_query("Q(y) :- E('a', y)")
        assert maybe_language(setting_2_1, query)(source_2_1, (Const("q"),))
        assert not persistent_maybe_language(setting_2_1, query)(
            source_2_1, (Const("q"),)
        )

    def test_no_solution_raises(self):
        setting = DataExchangeSetting.from_strings(
            Schema.of(Src=2),
            Schema.of(Tgt=2),
            ["Src(x, y) -> Tgt(x, y)"],
            ["Tgt(x, y) & Tgt(x, z) -> y = z"],
        )
        source = parse_instance("Src('a','b'), Src('a','c')")
        language = certain_language(setting, parse_query("Q(x) :- Tgt(x, y)"))
        with pytest.raises(NoCwaSolutionError):
            language(source, (Const("a"),))


class TestAgreementWithFullSets:
    def test_membership_matches_full_computation(self, setting_2_1, source_2_1):
        from repro.answering import all_four_semantics
        from repro.cwa import enumerate_cwa_solutions

        query = parse_query("Q(x) :- E(x, y)")
        solutions = enumerate_cwa_solutions(setting_2_1, source_2_1)
        full = all_four_semantics(
            setting_2_1, source_2_1, query, solutions=solutions
        )
        languages = {
            "certain": certain_language(setting_2_1, query),
            "persistent_maybe": persistent_maybe_language(setting_2_1, query),
            # Example 2.1 is outside Proposition 5.4's classes, so these
            # two decide per enumerated CWA-solution.
            "potential_certain": potential_certain_language(
                setting_2_1, query
            ),
            "maybe": maybe_language(setting_2_1, query),
        }
        domain = [(Const("a"),), (Const("b"),), (Const("c"),)]
        for name, language in languages.items():
            for answer in domain:
                assert language(source_2_1, answer) == (
                    answer in full[name]
                ), (name, answer)

    def test_cansol_fast_path_on_egd_setting(self, setting_egd_only):
        source = parse_instance("Emp('e1','d1'), Emp('e2','d1')")
        query = parse_query("Q(d) :- Dept(d, m)")
        language = potential_certain_language(setting_egd_only, query)
        assert language(source, (Const("d1"),))
        assert not language(source, (Const("d9"),))
        maybe = maybe_language(setting_egd_only, query)
        assert maybe(source, (Const("d1"),))

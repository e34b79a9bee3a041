"""Tests for enumerating CWA-(pre)solutions; Example 5.3."""

import pytest

from repro.core import isomorphic
from repro.cwa import (
    enumerate_cwa_presolutions,
    enumerate_cwa_solutions,
    is_cwa_solution,
    is_homomorphic_image_of,
    is_maximal_cwa_solution,
    is_minimal_cwa_solution,
    core_solution,
)
from repro.generators.settings_library import (
    example_5_3_named_solutions,
    example_5_3_source,
)
from repro.logic import parse_instance


class TestExample53:
    def test_exactly_four_solutions_for_one_p_fact(
        self, setting_5_3, source_5_3
    ):
        """For S = {P(1)} the CWA-solutions, up to renaming of nulls, are
        the four equality patterns of (z1..z4) that map into the
        canonical solution: all distinct, z3=z4, z1=z2, and both
        (the core)."""
        solutions = enumerate_cwa_solutions(setting_5_3, source_5_3)
        assert len(solutions) == 4

    def test_named_solutions_present(self, setting_5_3, source_5_3):
        solutions = enumerate_cwa_solutions(setting_5_3, source_5_3)
        t, t_prime = example_5_3_named_solutions()
        assert any(isomorphic(t, s) for s in solutions)
        assert any(isomorphic(t_prime, s) for s in solutions)

    def test_t_and_t_prime_incomparable(self, setting_5_3, source_5_3):
        """Neither T nor T' is a homomorphic image of another
        CWA-solution (the paper's incomparability claim)."""
        solutions = enumerate_cwa_solutions(setting_5_3, source_5_3)
        t, t_prime = example_5_3_named_solutions()
        for named in (t, t_prime):
            others = [s for s in solutions if not isomorphic(s, named)]
            assert not any(
                is_homomorphic_image_of(named, other) for other in others
            )

    def test_no_maximal_solution(self, setting_5_3, source_5_3):
        solutions = enumerate_cwa_solutions(setting_5_3, source_5_3)
        assert not any(
            is_maximal_cwa_solution(setting_5_3, source_5_3, s, solutions)
            for s in solutions
        )

    def test_core_is_the_unique_minimal(self, setting_5_3, source_5_3):
        solutions = enumerate_cwa_solutions(setting_5_3, source_5_3)
        minimal = core_solution(setting_5_3, source_5_3)
        assert is_minimal_cwa_solution(
            setting_5_3, source_5_3, minimal, solutions
        )
        non_core = [s for s in solutions if not isomorphic(s, minimal)]
        assert not any(
            is_minimal_cwa_solution(setting_5_3, source_5_3, s, solutions)
            for s in non_core
        )

    def test_solution_count_grows_exponentially(self, setting_5_3):
        """|CWA-solutions(S_n)| = 4^n: each P(i) independently picks one
        of the 4 patterns (the paper lower-bounds this by 2^n)."""
        counts = {}
        for n in (1, 2):
            source = example_5_3_source(n)
            counts[n] = len(enumerate_cwa_solutions(setting_5_3, source))
        assert counts[1] == 4
        assert counts[2] == 16


class TestEnumerationSoundness:
    def test_every_enumerated_presolution_is_one(
        self, setting_2_1, source_2_1
    ):
        from repro.cwa import is_cwa_presolution

        presolutions = enumerate_cwa_presolutions(setting_2_1, source_2_1)
        assert presolutions
        for candidate in presolutions:
            assert is_cwa_presolution(setting_2_1, source_2_1, candidate)

    def test_every_enumerated_solution_is_one(self, setting_2_1, source_2_1):
        for candidate in enumerate_cwa_solutions(setting_2_1, source_2_1):
            assert is_cwa_solution(setting_2_1, source_2_1, candidate)

    def test_results_pairwise_non_isomorphic(self, setting_2_1, source_2_1):
        results = enumerate_cwa_presolutions(setting_2_1, source_2_1)
        for i, left in enumerate(results):
            for right in results[i + 1 :]:
                assert not isomorphic(left, right)

    def test_known_solutions_found(self, setting_2_1, source_2_1, solutions_2_1):
        _, t2, t3 = solutions_2_1
        solutions = enumerate_cwa_solutions(setting_2_1, source_2_1)
        assert any(isomorphic(t2, s) for s in solutions)
        assert any(isomorphic(t3, s) for s in solutions)

    def test_no_solution_no_enumeration(self):
        from repro.core import Schema
        from repro.exchange import DataExchangeSetting

        setting = DataExchangeSetting.from_strings(
            Schema.of(Src=2),
            Schema.of(Tgt=2),
            ["Src(x, y) -> Tgt(x, y)"],
            ["Tgt(x, y) & Tgt(x, z) -> y = z"],
        )
        source = parse_instance("Src('a','b'), Src('a','c')")
        assert enumerate_cwa_solutions(setting, source) == []

    def test_empty_source(self, setting_2_1):
        from repro.core import Instance

        solutions = enumerate_cwa_solutions(setting_2_1, Instance())
        assert len(solutions) == 1
        assert len(solutions[0]) == 0


class TestSourcePartComputedOnce:
    """The s-t tgds match the source part, which no chase step changes,
    so the enumeration takes its reduct once, not once per step."""

    @pytest.mark.parametrize("example", ["2.1", "5.3"])
    def test_one_source_reduct_per_enumeration(
        self, monkeypatch, example, setting_2_1, source_2_1, setting_5_3
    ):
        from repro.core import Instance

        setting, source = (
            (setting_2_1, source_2_1)
            if example == "2.1"
            else (setting_5_3, example_5_3_source(2))
        )
        reducts = []
        original = Instance.reduct

        def counting_reduct(instance, schema):
            reducts.append(schema)
            return original(instance, schema)

        monkeypatch.setattr(Instance, "reduct", counting_reduct)
        solutions = enumerate_cwa_solutions(setting, source)
        monkeypatch.setattr(Instance, "reduct", original)
        assert solutions
        assert reducts.count(setting.source_schema) == 1


class TestSearchCount:
    """The enumeration's work, counted.

    Each witness choice is checked atom by atom against the canonical
    solution before its branch is cloned, and states hold their target
    part only, so most dead choices never reach a homomorphism search.
    The bounds leave a little room over the counts measured when the
    prefilter went in (74 and 20 searches; the full search on every
    branch made 191 and 65).
    """

    @staticmethod
    def _searches(setting, source):
        import repro.obs as obs

        obs.reset()
        solutions = enumerate_cwa_solutions(setting, source)
        searches = obs.snapshot()["counters"]["hom.searches"]
        obs.reset()
        return solutions, searches

    def test_example_2_1(self, setting_2_1, source_2_1):
        solutions, searches = self._searches(setting_2_1, source_2_1)
        assert len(solutions) == 3
        assert searches <= 80

    def test_example_5_3(self, setting_5_3):
        solutions, searches = self._searches(
            setting_5_3, example_5_3_source(1)
        )
        assert len(solutions) == 4
        assert searches <= 25


#: ``answer_battery``'s items (``bench/workloads.py``) with the
#: valuations and worlds one ``all_four_semantics`` call walks: the core
#: half's plus every enumerated solution's.  Pruning the enumeration and
#: skipping valuation-stable dependencies in the world test change
#: neither.
BATTERY_WALKS = (
    ("2.1", "Q(x) :- E(x, y)", 208, 208),
    ("2.1", "Q(x) :- F(x, y)", 208, 208),
    ("2.1", "Q(x, y) :- E(x, y)", 208, 208),
    ("2.1", "Q(x) :- E(x, y) & F(y, z)", 208, 208),
    ("5.3", "Q(x) :- E(x, y, z)", 92, 82),
    ("5.3", "Q(x, y) :- F(x, y, y)", 92, 82),
    ("5.3", "Q(x, y, z) :- F(x, y, z)", 92, 82),
)


class TestBatteryWalks:
    @pytest.mark.parametrize("example, text, valuations, worlds", BATTERY_WALKS)
    def test_walk_counts(
        self, example, text, valuations, worlds, setting_2_1, source_2_1,
        setting_5_3,
    ):
        import repro.obs as obs
        from repro.answering import all_four_semantics
        from repro.logic import parse_query

        setting, source = (
            (setting_2_1, source_2_1)
            if example == "2.1"
            else (setting_5_3, example_5_3_source(1))
        )
        obs.reset()
        all_four_semantics(setting, source, parse_query(text))
        counters = obs.snapshot()["counters"]
        obs.reset()
        assert counters["answering.valuations_enumerated"] == valuations
        assert counters["answering.worlds_visited"] == worlds

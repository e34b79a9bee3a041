"""Tests for exchange reports and DOT export."""

import pytest

import repro.obs as obs
from repro.core import Schema
from repro.dependencies import dependency_graph, parse_dependencies
from repro.dependencies.graph import to_dot
from repro.exchange import DataExchangeSetting, render, report
from repro.logic import parse_instance


class TestReport:
    def test_solved_report(self, setting_2_1, source_2_1):
        exchange_report = report(setting_2_1, source_2_1)
        assert exchange_report.status == "solved"
        text = render(exchange_report)
        assert "richly acyclic" in text
        assert "chase: success in 3 steps" in text
        assert "core (minimal CWA-solution): 3 atoms" in text
        assert "null justifications" in text

    def test_justifications_cover_core_nulls(self, setting_2_1, source_2_1):
        exchange_report = report(setting_2_1, source_2_1)
        produced = " ".join(p for _, p in exchange_report.justifications)
        for null in exchange_report.result.core_solution.nulls():
            assert str(null) in produced

    def test_answer_samples_walk_the_worlds_once(
        self, setting_2_1, source_2_1
    ):
        # One joint certain/maybe walk per target relation: two separate
        # walks enumerate 46 valuations on Example 2.1, the joint one 30.
        obs.reset()
        exchange_report = report(setting_2_1, source_2_1)
        counters = obs.snapshot()["counters"]
        assert exchange_report.answer_samples == [
            ("E", 1, 1),
            ("F", 0, 3),
            ("G", 0, 10),
        ]
        assert counters["answering.valuations_enumerated"] == 30

    @pytest.mark.parametrize("example", ["2.1", "5.3"])
    def test_answer_samples_are_certain_and_persistent_maybe(self, example):
        # □Q and ◇Q of the core are certain□ and maybe□ (Theorem 7.1);
        # maybe◇ differs on both examples (E of 2.1: 3, F of 5.3: 5).
        from repro.answering import certain_answers, persistent_maybe_answers
        from repro.core.atoms import Atom
        from repro.core.terms import Variable
        from repro.generators.settings_library import (
            example_2_1_setting,
            example_2_1_source,
            example_5_3_setting,
            example_5_3_source,
        )
        from repro.logic.queries import ConjunctiveQuery

        if example == "2.1":
            setting, source = example_2_1_setting(), example_2_1_source()
        else:
            setting, source = example_5_3_setting(), example_5_3_source(1)
        exchange_report = report(setting, source)
        text = render(exchange_report)
        assert "maybe◇" not in text
        for name, certain, maybe in exchange_report.answer_samples:
            relation = setting.target_schema[name]
            variables = tuple(
                Variable(f"x{i}") for i in range(relation.arity)
            )
            query = ConjunctiveQuery(variables, [Atom(relation, variables)])
            assert certain == len(certain_answers(setting, source, query))
            assert maybe == len(
                persistent_maybe_answers(setting, source, query)
            )
            assert (
                f"  {name}: {certain} certain□ answer(s), "
                f"{maybe} maybe□ answer(s)"
            ) in text

    def test_no_solution_report(self):
        setting = DataExchangeSetting.from_strings(
            Schema.of(Src=2),
            Schema.of(Tgt=2),
            ["Src(x, y) -> Tgt(x, y)"],
            ["Tgt(x, y) & Tgt(x, z) -> y = z"],
        )
        source = parse_instance("Src('a','b'), Src('a','c')")
        exchange_report = report(setting, source)
        assert exchange_report.status == "no solution"
        assert "FAILED" in render(exchange_report)

    def test_diverged_report(self):
        setting = DataExchangeSetting.from_strings(
            Schema.of(S0=2),
            Schema.of(E=2),
            ["S0(x, y) -> E(x, y)"],
            ["E(x, y) -> exists z . E(y, z)"],
        )
        source = parse_instance("S0('a','b')")
        exchange_report = report(setting, source, max_steps=50)
        assert exchange_report.status == "diverged"
        text = render(exchange_report)
        assert "DIVERGED" in text
        assert "NOT weakly acyclic" in text

    def test_restricted_class_mentioned(self, setting_egd_only):
        source = parse_instance("Emp('e1','d1')")
        text = render(report(setting_egd_only, source))
        assert "egds only" in text


class TestDotExport:
    def test_edges_rendered(self):
        deps = parse_dependencies(["E(x, y) -> exists z . F(y, z)"])
        dot = to_dot(dependency_graph(deps))
        assert dot.startswith("digraph")
        assert '"E.2" -> "F.1";' in dot  # regular edge, 1-based positions
        assert "style=dashed" in dot  # the existential edge

    def test_extended_graph_has_more_dashed_edges(self):
        deps = parse_dependencies(["E(x, y) -> exists z . F(x, z)"])
        plain = to_dot(dependency_graph(deps))
        extended = to_dot(dependency_graph(deps, extended=True))
        assert extended.count("dashed") > plain.count("dashed")

    def test_empty_graph(self):
        dot = to_dot(dependency_graph([]))
        assert dot.startswith("digraph") and dot.endswith("}")

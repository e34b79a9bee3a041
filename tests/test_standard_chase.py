"""Tests for the standard chase."""

from repro.chase import ChaseStatus, satisfies_all, standard_chase, violations
from repro.core import Const, Instance, Schema, atom, RelationSymbol
from repro.dependencies import parse_dependencies, parse_dependency
from repro.logic import parse_instance


class TestBasicChase:
    def test_single_tgd(self):
        deps = parse_dependencies(["E(x, y) -> F(y, x)"])
        outcome = standard_chase(parse_instance("E('a','b')"), deps)
        assert outcome.successful
        assert atom(RelationSymbol("F", 2), "b", "a") in outcome.instance

    def test_existential_creates_null(self):
        deps = parse_dependencies(["E(x, y) -> exists z . F(y, z)"])
        outcome = standard_chase(parse_instance("E('a','b')"), deps)
        result = outcome.require_success()
        assert len(result.nulls()) == 1

    def test_satisfied_conclusion_does_not_fire(self):
        deps = parse_dependencies(["E(x, y) -> exists z . F(x, z)"])
        outcome = standard_chase(parse_instance("E('a','b'), F('a','w')"), deps)
        assert outcome.steps == 0

    def test_result_satisfies_dependencies(self, setting_2_1, source_2_1):
        deps = list(setting_2_1.all_dependencies)
        outcome = standard_chase(source_2_1, deps)
        assert outcome.successful
        assert satisfies_all(outcome.instance, deps)

    def test_input_not_mutated(self):
        deps = parse_dependencies(["E(x, y) -> F(y, x)"])
        source = parse_instance("E('a','b')")
        standard_chase(source, deps)
        assert len(source) == 1

    def test_cascading_tgds(self):
        deps = parse_dependencies(
            [
                "R0(x, y) -> exists z . R1(y, z)",
                "R1(x, y) -> exists z . R2(y, z)",
            ]
        )
        outcome = standard_chase(parse_instance("R0('a','b')"), deps)
        result = outcome.require_success()
        assert result.count_of("R1") == 1 and result.count_of("R2") == 1


class TestEgdHandling:
    def test_merge_nulls(self):
        deps = parse_dependencies(
            [
                "E(x, y) -> exists z . F(x, z)",
                "N(x, y) -> exists z . F(x, z)",
                "F(x, y) & F(x, z) -> y = z",
            ]
        )
        outcome = standard_chase(parse_instance("E('a','b'), N('a','c')"), deps)
        result = outcome.require_success()
        assert result.count_of("F") == 1

    def test_merge_null_with_constant(self):
        deps = parse_dependencies(
            [
                "E(x, y) -> exists z . F(x, z)",
                "G(x, y) -> F(x, y)",
                "F(x, y) & F(x, z) -> y = z",
            ]
        )
        outcome = standard_chase(parse_instance("E('a','b'), G('a','c')"), deps)
        result = outcome.require_success()
        assert result.atoms_of("F") == frozenset(
            {atom(RelationSymbol("F", 2), "a", "c")}
        )

    def test_constant_clash_fails(self):
        deps = parse_dependencies(["F(x, y) & F(x, z) -> y = z"])
        outcome = standard_chase(parse_instance("F('a','b'), F('a','c')"), deps)
        assert outcome.failed


class TestDivergence:
    def test_non_terminating_setting_diverges(self):
        deps = parse_dependencies(["E(x, y) -> exists z . E(y, z)"])
        outcome = standard_chase(
            parse_instance("E('a','b')"), deps, max_steps=50
        )
        assert outcome.diverged


class TestTrace:
    def test_trace_records_steps(self):
        deps = parse_dependencies(["E(x, y) -> exists z . F(y, z)"])
        outcome = standard_chase(parse_instance("E('a','b')"), deps, trace=True)
        assert len(outcome.trace) == outcome.steps == 1
        step = outcome.trace[0]
        assert step.kind == "tgd"
        assert len(step.added) == 1

    def test_trace_records_merges(self):
        deps = parse_dependencies(
            [
                "E(x, y) -> exists z . F(x, z)",
                "G(x, y) -> F(x, y)",
                "F(x, y) & F(x, z) -> y = z",
            ]
        )
        outcome = standard_chase(
            parse_instance("E('a','b'), G('a','c')"), deps, trace=True
        )
        kinds = [step.kind for step in outcome.trace]
        assert "egd" in kinds


class TestViolationsHelper:
    def test_reports_violated_tgd(self):
        deps = parse_dependencies(["E(x, y) -> F(y, x)"])
        problems = violations(parse_instance("E('a','b')"), deps)
        assert len(problems) == 1 and "tgd" in problems[0]

    def test_reports_violated_egd(self):
        deps = parse_dependencies(["F(x, y) & F(x, z) -> y = z"])
        problems = violations(parse_instance("F('a','b'), F('a','c')"), deps)
        assert len(problems) == 1 and "egd" in problems[0]

    def test_clean_instance_has_no_violations(self):
        deps = parse_dependencies(["E(x, y) -> F(y, x)"])
        assert violations(parse_instance("E('a','b'), F('b','a')"), deps) == []

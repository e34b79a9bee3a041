"""Coverage for the error hierarchy and human-facing representations."""

import pytest

from repro.core import (
    ArityError,
    ChaseDivergence,
    ChaseFailure,
    Const,
    DependencyError,
    Instance,
    ParseError,
    ReproError,
    SchemaError,
    UnsupportedQueryError,
)
from repro.core.errors import NotASolutionError
from repro.dependencies import parse_dependency
from repro.logic import parse_instance, parse_query


class TestHierarchy:
    @pytest.mark.parametrize(
        "error_type",
        [
            SchemaError,
            ArityError,
            ParseError,
            DependencyError,
            NotASolutionError,
            UnsupportedQueryError,
        ],
    )
    def test_all_derive_from_repro_error(self, error_type):
        assert issubclass(error_type, ReproError)

    def test_arity_is_schema_error(self):
        assert issubclass(ArityError, SchemaError)

    def test_chase_failure_carries_context(self):
        egd = parse_dependency("F(x, y) & F(x, z) -> y = z")
        failure = ChaseFailure(egd, Const("a"), Const("b"))
        assert failure.left == Const("a")
        assert "a = b" in str(failure)

    def test_chase_divergence_carries_steps(self):
        divergence = ChaseDivergence(42)
        assert divergence.steps == 42
        assert "42" in str(divergence)

    def test_parse_error_points_at_position(self):
        error = ParseError("bad token", "E(x @ y)", 5)
        message = str(error)
        assert "E(x @ y)" in message
        assert "^" in message


class TestRepresentations:
    def test_instance_repr_sorted(self):
        inst = parse_instance("E('b','a'), E('a','b')")
        assert repr(inst) == "Instance({E(a, b), E(b, a)})"

    def test_empty_instance_repr(self):
        assert repr(Instance()) == "Instance(∅)"

    def test_pretty_groups_by_relation(self):
        inst = parse_instance("E('a','b'), P('a')")
        lines = inst.pretty().splitlines()
        assert len(lines) == 2

    def test_pretty_empty(self):
        assert "empty" in Instance().pretty()

    def test_dependency_reprs(self):
        tgd = parse_dependency("E(x, y) -> exists z . F(y, z)")
        assert "∃z" in repr(tgd)
        egd = parse_dependency("F(x, y) & F(x, z) -> y = z")
        assert "y = z" in repr(egd)

    def test_query_reprs(self):
        assert ":-" in repr(parse_query("Q(x) :- E(x, y)"))
        assert "∪" in repr(parse_query("Q(x) :- E(x, y) ; Q(x) :- E(y, x)"))
        assert ":=" in repr(parse_query("Q(x) := exists y . E(x, y)"))

    def test_setting_repr(self, setting_2_1):
        text = repr(setting_2_1)
        assert "Σ_st" in text and "Σ_t" in text

    def test_exchange_result_reprs(self, setting_2_1, source_2_1):
        from repro.exchange import solve

        result = solve(setting_2_1, source_2_1)
        assert "|core|" in repr(result)

    def test_no_solution_result_repr(self):
        from repro.core import Schema
        from repro.exchange import DataExchangeSetting, solve

        setting = DataExchangeSetting.from_strings(
            Schema.of(Src=2),
            Schema.of(Tgt=2),
            ["Src(x, y) -> Tgt(x, y)"],
            ["Tgt(x, y) & Tgt(x, z) -> y = z"],
        )
        result = solve(setting, parse_instance("Src('a','b'), Src('a','c')"))
        assert "no solution" in repr(result)

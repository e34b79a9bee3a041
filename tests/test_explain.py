"""Tests for the chase narration/explain module."""

import pytest

from repro.chase import (
    alpha_chase,
    explain,
    narrate,
    narrate_why,
    standard_chase,
    survival,
    why_not,
)
from repro.chase.alpha import ExplicitAlpha
from repro.core import Const, Null, NullFactory
from repro.core.atoms import Atom
from repro.core.schema import RelationSymbol
from repro.dependencies import parse_dependencies
from repro.logic import parse_instance
from repro.obs.provenance import recording


def atom(name, *args):
    values = tuple(
        Null(i) if isinstance(i, int) else Const(i) for i in args
    )
    return Atom(RelationSymbol(name, len(values)), values)


class TestExplain:
    def test_replay_matches_engine_result(self):
        deps = parse_dependencies(
            [
                "E(x, y) -> exists z . F(y, z)",
                "F(x, y) -> G(y, x)",
            ]
        )
        source = parse_instance("E('a','b'), E('b','c')")
        with recording() as ledger:
            outcome = standard_chase(source, deps)
        steps = explain(source, outcome, ledger.steps)
        assert steps
        assert steps[-1].instance == outcome.instance

    def test_untraced_outcome_rejected(self):
        deps = parse_dependencies(["E(x, y) -> exists z . F(y, z)"])
        source = parse_instance("E('a','b')")
        outcome = standard_chase(source, deps)
        with pytest.raises(ValueError):
            explain(source, outcome, ())

    def test_zero_step_chase_explained(self):
        deps = parse_dependencies(["E(x, y) -> exists z . F(y, z)"])
        source = parse_instance("F('b','w'), E('a','b')")
        outcome = standard_chase(source, deps)
        assert outcome.steps == 0
        assert explain(source, outcome, ()) == []

    def test_narrate_structure(self):
        deps = parse_dependencies(["E(x, y) -> exists z . F(y, z)"])
        source = parse_instance("E('a','b')")
        with recording() as ledger:
            outcome = standard_chase(source, deps)
        text = narrate(source, outcome, ledger.steps)
        assert text.startswith("I0 = {E(a, b)}")
        assert "I1 = I0 ∪" in text
        assert "result: success after 1 step(s)" in text

    def test_narrate_records_merges(self):
        deps = parse_dependencies(
            [
                "E(x, y) -> exists z . F(x, z)",
                "G(x, y) -> F(x, y)",
                "F(x, y) & F(x, z) -> y = z",
            ]
        )
        source = parse_instance("E('a','b'), G('a','c')")
        with recording() as ledger:
            outcome = standard_chase(source, deps)
        text = narrate(source, outcome, ledger.steps)
        assert "replacing" in text

    def test_narrate_alpha_chase(self, setting_2_1, source_2_1):
        d1, d2 = setting_2_1.st_dependencies
        d3, d4 = setting_2_1.target_dependencies

        def values(*items):
            return tuple(
                Null(i) if isinstance(i, int) else Const(i) for i in items
            )

        alpha = ExplicitAlpha(
            {
                (d2, values("a"), values("b")): values(1, 3),
                (d2, values("a"), values("c")): values(2, 3),
                (d3, values(3), values("a")): values(4),
            },
            fallback=NullFactory(100),
        )
        with recording() as ledger:
            outcome = alpha_chase(
                source_2_1, list(setting_2_1.all_dependencies), alpha
            )
        text = narrate(source_2_1, outcome, ledger.steps, show_instances=True)
        assert "result: success" in text
        assert "I4" in text


class TestDagNarration:
    """DAG-aware narration off the provenance ledger."""

    def test_narrate_why_walks_to_source(self, setting_2_1):
        source = parse_instance("M('a','b'), N('a','b')")
        with recording() as ledger:
            standard_chase(source, list(setting_2_1.all_dependencies))
        text = narrate_why(ledger, atom("G", 1, 2))
        lines = text.splitlines()
        assert lines[0].startswith("G(⊥1, ⊥2) ⇐ d3[")
        assert lines[1].lstrip().startswith("F(a, ⊥1) ⇐ d2[")
        assert lines[2].lstrip() == "N(a, b) ⇐ source"

    def test_narrate_why_on_egd_merging_chase(self):
        # Example 4.4 shape: tgd-created nulls collide on a key egd and
        # get merged away; narration must surface the merge.
        deps = parse_dependencies(
            [
                "E(x, y) -> exists z . F(x, z)",
                "G(x, y) -> F(x, y)",
                "F(x, y) & F(x, z) -> y = z",
            ]
        )
        source = parse_instance("E('a','b'), G('a','c')")
        with recording() as ledger:
            outcome = standard_chase(source, deps)
        assert outcome.successful
        # The pre-merge fact is explained as rewritten.
        gone = why_not(ledger, atom("F", "a", 0))
        assert "rewritten to F(a, c)" in gone
        # Chain of the surviving form reaches a source atom.
        text = narrate_why(ledger, atom("F", "a", "c"))
        assert "⇐ source" in text

    def test_narrate_why_on_alpha_trace(self, setting_2_1, source_2_1):
        d1, d2 = setting_2_1.st_dependencies
        d3, _ = setting_2_1.target_dependencies

        def values(*items):
            return tuple(
                Null(i) if isinstance(i, int) else Const(i) for i in items
            )

        alpha = ExplicitAlpha(
            {
                (d2, values("a"), values("b")): values(1, 3),
                (d2, values("a"), values("c")): values(2, 3),
                (d3, values(3), values("a")): values(4),
            },
            fallback=NullFactory(100),
        )
        with recording() as ledger:
            outcome = alpha_chase(
                source_2_1, list(setting_2_1.all_dependencies), alpha
            )
        assert outcome.successful
        # ᾱ(d3, (⊥3), (a)) = (⊥4): the α-chosen witness appears in the
        # justification of G(⊥3, ⊥4), grounded in an N source atom.
        text = narrate_why(ledger, atom("G", 3, 4))
        assert text.startswith("G(⊥3, ⊥4) ⇐ d3[")
        assert "z ↦ ⊥4" in text
        assert "⇐ source" in text.splitlines()[-1]

    def test_why_not_never_derived(self, setting_2_1):
        source = parse_instance("M('a','b'), N('a','b')")
        with recording() as ledger:
            standard_chase(source, list(setting_2_1.all_dependencies))
        assert "never derived" in why_not(ledger, atom("E", "q", "q"))

    def test_survival_names_the_grounds(self, setting_2_1):
        source = parse_instance("M('a','b'), N('a','b')")
        with recording() as ledger:
            standard_chase(source, list(setting_2_1.all_dependencies))
        text = survival(ledger, atom("G", 1, 2))
        assert "survives" in text
        assert "N(a, b)" in text

    def test_survival_of_retracted_fact_explains_retraction(
        self, setting_2_1
    ):
        from repro.homomorphism import core

        source = parse_instance("M('a','b'), N('a','b')")
        with recording() as ledger:
            outcome = standard_chase(
                source, list(setting_2_1.all_dependencies)
            )
            target = outcome.instance.reduct(setting_2_1.target_schema)
            folded = core(target)
        dropped = sorted(set(target) - set(folded))
        assert dropped
        assert "retracted by core" in survival(ledger, dropped[0])

"""Held plans: owners of fixed patterns resolve their compiled plan once.

A tgd holds its conclusion check's plan, an egd its premise's, a
semi-naive seed its completion join's and a block-kernel round its
pattern's.  These tests check that

* every owner still honours ``plans.interpreted_only()``: with the
  compiled executor patched to raise, a ``solve`` under the toggle runs
  to the same core and the same firings as the compiled run;
* a held plan is derived data: a chased dependency or setting pickles
  and deep-copies to an equal object with the same hash and ``repr``,
  and the plan stays out of the pickled state;
* ``Tgd.conclusion_holds_at`` still checks the frontier values it is
  given, under either executor, although its held plan does not.
"""

import contextlib
import copy
import pickle

import pytest

from repro.core import Atom, Const, Instance, RelationSymbol
from repro.core.schema import Schema
from repro.dependencies import parse_dependency
from repro.engine import fingerprint_instance
from repro.engine.fingerprint import fingerprint_setting
from repro.exchange import DataExchangeSetting, solve
from repro.generators import example_2_1_scaled_source, example_2_1_setting
from repro.logic import parse_instance, plans
from repro.obs import counter

from .test_trigger_memo import closure_setting, strongly_connected_digraph


def symmetric_setting():
    """Disjoint null-swap components that are already a core."""
    return DataExchangeSetting.from_strings(
        Schema.of(P=1),
        Schema.of(E=2, F=2),
        ["P(a) -> exists x, y . E(a,x) & E(a,y) & F(x,y) & F(y,x)"],
        [],
    )


def symmetric_source(components):
    relation = RelationSymbol("P", 1)
    return Instance(
        Atom(relation, (Const(f"a{index}"),)) for index in range(components)
    )


CASES = {
    "example_2_1": lambda: (
        example_2_1_setting(),
        example_2_1_scaled_source(8, seed=5),
    ),
    "closure": lambda: (
        closure_setting(),
        strongly_connected_digraph(12, 24, seed=3),
    ),
    "symmetric": lambda: (symmetric_setting(), symmetric_source(3)),
}

FIRINGS = counter("chase.tgd_firings")


def solved(setting, source):
    """The core's digest and the tgd firings of one ``solve``."""
    before = FIRINGS.value
    result = solve(setting, source.copy())
    return fingerprint_instance(result.core_solution), FIRINGS.value - before


class TestToggle:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_owner_honours_interpreted_only(self, case, monkeypatch):
        setting, source = CASES[case]()
        calls = []
        project = plans.CompiledPattern.project
        exists = plans.CompiledPattern.exists

        def counted_project(plan, *args, **kwargs):
            calls.append("project")
            return project(plan, *args, **kwargs)

        def counted_exists(plan, *args, **kwargs):
            calls.append("exists")
            return exists(plan, *args, **kwargs)

        monkeypatch.setattr(plans.CompiledPattern, "project", counted_project)
        monkeypatch.setattr(plans.CompiledPattern, "exists", counted_exists)
        # The compiled run goes through the compiled executor, and
        # leaves every owner of this setting holding its plan.
        compiled = solved(setting, source)
        assert "project" in calls and "exists" in calls

        def refuse(*args, **kwargs):
            raise AssertionError("compiled executor ran under interpreted_only")

        monkeypatch.setattr(plans.CompiledPattern, "project", refuse)
        monkeypatch.setattr(plans.CompiledPattern, "exists", refuse)
        with plans.interpreted_only():
            held = solved(setting, source)
            fresh = solved(*CASES[case]())
        assert held == compiled
        assert fresh == compiled


def chased_setting():
    """Example 2.1's setting after a ``solve``: each dependency holds
    its plan."""
    setting = example_2_1_setting()
    solve(setting, example_2_1_scaled_source(4, seed=1))
    for dependency in setting.all_dependencies:
        assert dependency._held_plan is not None, dependency
    return setting


ROUND_TRIPS = {
    "pickle": lambda item: pickle.loads(pickle.dumps(item)),
    "deepcopy": copy.deepcopy,
}


class TestDerivedState:
    @pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
    def test_chased_dependencies_round_trip(self, how):
        setting = chased_setting()
        fresh = example_2_1_setting()
        kinds = set()
        for dependency, unchased in zip(
            setting.all_dependencies, fresh.all_dependencies
        ):
            kinds.add(type(dependency).__name__)
            loaded = ROUND_TRIPS[how](dependency)
            assert loaded == dependency
            assert hash(loaded) == hash(dependency)
            assert repr(loaded) == repr(dependency)
            assert loaded._held_plan is None
            assert pickle.dumps(dependency) == pickle.dumps(unchased)
        assert kinds == {"Tgd", "Egd"}

    @pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
    def test_chased_setting_round_trips(self, how):
        setting = chased_setting()
        loaded = ROUND_TRIPS[how](setting)
        assert loaded.all_dependencies == setting.all_dependencies
        assert hash(loaded.all_dependencies) == hash(setting.all_dependencies)
        assert repr(loaded) == repr(setting)
        assert fingerprint_setting(loaded) == fingerprint_setting(setting)
        assert b"CompiledPattern" not in pickle.dumps(setting)
        source = example_2_1_scaled_source(4, seed=2)
        assert solved(loaded, source) == solved(setting, source)


class TestCheckedFrontier:
    """Wrong frontier values raise, before and after the plan is held,
    compiled or interpreted: a short frontier would otherwise leave a
    frontier variable free, and a raw string would probe nothing."""

    INSTANCE = "E('a','b'), F('a','b'), F('b','w')"
    TGDS = ("E(x, y) -> F(x, y)", "E(x, y) -> exists z . F(y, z)")

    @pytest.mark.parametrize("interpreted", [False, True])
    @pytest.mark.parametrize("text", TGDS)
    def test_wrong_frontier_values_raise(self, text, interpreted):
        tgd = parse_dependency(text)
        instance = parse_instance(self.INSTANCE)
        good = tuple(Const(name) for name in ("a", "b")[: len(tgd.frontier)])
        missing = tuple(Const(name) for name in ("q", "w")[: len(tgd.frontier)])
        bad = {
            ValueError: [good[:-1], good + (Const("a"),)],
            TypeError: [("a",) + good[1:], (None,) + good[1:]],
        }
        with plans.interpreted_only() if interpreted else contextlib.nullcontext():
            for _ in range(2):  # before and after the plan is held
                assert tgd.conclusion_holds_at(instance, good)
                assert not tgd.conclusion_holds_at(instance, missing)
                for error, frontiers in bad.items():
                    for frontier in frontiers:
                        with pytest.raises(error):
                            tgd.conclusion_holds_at(instance, frontier)

"""Attributed execution: plan stats, dependency attribution, heartbeat.

Covers the ``repro.obs.attribution`` tables end to end: off-by-default
(no producer records anything), profiled plan execution, per-dependency
attribution from all four chase engines, the snapshot state section,
and the progress heartbeat's divergence signal.
"""

import io
import json
import os
from contextlib import nullcontext

import pytest

from repro import obs
from repro.chase.oblivious import (
    fire_all_source_justifications,
    oblivious_chase,
)
from repro.chase.seminaive import seminaive_chase
from repro.chase.standard import standard_chase
from repro.logic import plans
from repro.logic.matching import attributed, match, match_interpreted
from repro.obs import attribution

@pytest.fixture(autouse=True)
def clean_attribution():
    attribution.disable_heartbeat()
    attribution.enable(False)
    attribution.reset()
    yield
    attribution.disable_heartbeat()
    attribution.enable(False)
    attribution.reset()


class TestOffByDefault:
    def test_disabled_runs_record_nothing(self, setting_2_1, source_2_1):
        assert not attribution.enabled()
        outcome = standard_chase(
            source_2_1, list(setting_2_1.all_dependencies)
        )
        assert outcome.successful
        assert attribution.export() is None
        assert attribution.plans() == {}
        assert attribution.dependencies() == {}

    def test_attributing_scope_restores(self):
        with attribution.attributing():
            assert attribution.enabled()
            with attribution.attributing():
                assert attribution.enabled()
            assert attribution.enabled()
        assert not attribution.enabled()


class TestPlanStats:
    def test_profiled_run_fills_plan_records(self, setting_2_1, source_2_1):
        with attribution.attributing():
            outcome = standard_chase(
                source_2_1, list(setting_2_1.all_dependencies)
            )
        assert outcome.successful
        table = attribution.plans()
        assert table
        for identity, record in table.items():
            assert len(identity) == 16
            assert record["uses"] > 0
            assert len(record["counts"]) == len(record["steps"])
            for step, (probes, candidates, emitted, seconds) in zip(
                record["steps"], record["counts"]
            ):
                # Emitted bindings never exceed candidates scanned.
                assert emitted <= candidates
                assert seconds >= 0.0
                assert set(step) >= {"relation", "checks", "ground"}
        # At least one plan actually emitted bindings (the chase fired).
        assert any(
            counts[2] > 0
            for record in table.values()
            for counts in record["counts"]
        )

    def test_profiled_matches_agree_with_plain(self, setting_2_1, source_2_1):
        tgd = setting_2_1.st_dependencies[0]
        plan = plans.plan_for(tuple(tgd.premise_atoms), (), frozenset())
        plain = list(plan.project(source_2_1, tgd.binding_order))
        with attribution.attributing():
            profiled = list(plan.project(source_2_1, tgd.binding_order))
        assert plain == profiled
        assert sorted(plain) == sorted(
            match_interpreted(tgd.premise_atoms, source_2_1, tgd.binding_order)
        )
        # Both executors charge the same work to the active scope.
        egd = setting_2_1.target_dependencies[1]
        canonical = setting_2_1.canonical_universal_solution(source_2_1)
        pairs = []
        for context in (nullcontext(), attribution.attributing()):
            obs.reset()
            with context, attributed("probe"):
                assert list(match(egd.premise_atoms, canonical, ()))
            pairs.append(
                (
                    obs.counter("probe.candidates").value,
                    obs.counter("probe.backtracks").value,
                )
            )
        assert pairs[0] == pairs[1]
        assert pairs[0][0] > 0

    def test_identity_is_content_stable(self, setting_2_1):
        tgd = setting_2_1.st_dependencies[0]
        first = plans.plan_for(tuple(tgd.premise_atoms), (), frozenset())
        second = plans.plan_for(tuple(tgd.premise_atoms), (), frozenset())
        assert first.identity == second.identity
        other = plans.plan_for(
            tuple(tgd.conclusion_atoms), (), frozenset(tgd.frontier)
        )
        assert other.identity != first.identity

    def test_step_estimate_and_misestimate(self):
        step = {"checks": 2}
        assert attribution.step_estimate(step, 100) == pytest.approx(1.0)
        # 100 candidates, estimate 1.0, actual 100 -> 100x off: flagged.
        assert attribution.step_misestimate(step, [0, 100, 100, 0.0]) >= 8.0
        # Below the candidate floor: never flagged.
        assert attribution.step_misestimate(step, [0, 10, 10, 0.0]) is None
        # Estimate close to actual: not flagged.
        assert (
            attribution.step_misestimate({"checks": 0}, [0, 100, 100, 0.0])
            is None
        )


class TestDependencyAttribution:
    def test_standard_engine(self, setting_2_1, source_2_1):
        st1, st2 = (
            attribution.dep_label(dep)
            for dep in setting_2_1.st_dependencies
        )
        target_tgd = attribution.dep_label(
            next(d for d in setting_2_1.target_dependencies if d.is_tgd)
        )
        with attribution.attributing():
            outcome = standard_chase(
                source_2_1, list(setting_2_1.all_dependencies)
            )
        assert outcome.successful
        table = attribution.dependencies()
        assert {st1, st2, target_tgd} <= set(table)
        for record in table.values():
            assert record["triggers"] >= record["firings"]
            assert record["seconds"] >= 0.0
            assert record["rounds"]
        # Example 2.1: the second s-t tgd invents z1, z2; the target
        # tgd invents z.
        assert table[st2]["nulls"] == 2
        assert table[target_tgd]["nulls"] == 1

    def test_seminaive_matches_standard_counts(self, setting_2_1, source_2_1):
        deps = list(setting_2_1.all_dependencies)
        with attribution.attributing():
            standard_chase(source_2_1, deps)
        standard_counts = {
            name: (record["firings"], record["nulls"])
            for name, record in attribution.dependencies().items()
        }
        attribution.reset()
        with attribution.attributing():
            seminaive_chase(source_2_1, deps)
        seminaive_counts = {
            name: (record["firings"], record["nulls"])
            for name, record in attribution.dependencies().items()
        }
        assert standard_counts == seminaive_counts

    def test_oblivious_engine(self, setting_2_1, source_2_1):
        st1, st2 = (
            attribution.dep_label(dep)
            for dep in setting_2_1.st_dependencies
        )
        with attribution.attributing():
            fire_all_source_justifications(
                source_2_1, setting_2_1.st_dependencies
            )
        table = attribution.dependencies()
        assert {st1, st2} <= set(table)
        assert table[st1]["firings"] == 1
        assert table[st2]["firings"] == 2
        assert table[st2]["nulls"] == 4

    def test_alpha_engine(self, setting_2_1, source_2_1):
        st1, st2 = (
            attribution.dep_label(dep)
            for dep in setting_2_1.st_dependencies
        )
        with attribution.attributing():
            outcome, _ = oblivious_chase(
                source_2_1, list(setting_2_1.st_dependencies)
            )
        assert outcome.successful
        table = attribution.dependencies()
        assert {st1, st2} <= set(table)
        assert table[st1]["firings"] >= 1

    def test_round_breakdown_is_bounded(self):
        for round_index in range(attribution.MAX_ROUNDS + 40):
            attribution.record_dependency(
                "d", round_index=round_index, triggers=1
            )
        rounds = attribution.dependencies()["d"]["rounds"]
        assert len(rounds) == attribution.MAX_ROUNDS + 1
        assert rounds["overflow"]["triggers"] == 40


class TestStateSection:
    def test_snapshot_carries_section_additively(self):
        snapshot = obs.snapshot()
        assert "attribution" not in snapshot
        attribution.record_dependency("d1", triggers=1)
        snapshot = obs.snapshot()
        assert snapshot["schema"] == "repro.obs/v1"
        assert (
            snapshot["attribution"]["schema"]
            == attribution.ATTRIBUTION_SCHEMA
        )
        assert snapshot["attribution"] == attribution.export()
        assert snapshot["attribution"]["dependencies"]["d1"]["triggers"] == 1

    def test_obs_reset_clears_tables(self):
        attribution.record_dependency("d1", triggers=1)
        obs.reset()
        assert attribution.export() is None

    def test_plan_gauges(self, setting_2_1, source_2_1):
        with attribution.attributing():
            standard_chase(source_2_1, list(setting_2_1.all_dependencies))
        gauges = obs.snapshot()["gauges"]
        assert gauges["plan.steps_profiled"] > 0
        assert gauges["plan.misestimates"] >= 0


class TestHeartbeat:
    def test_beat_is_noop_without_heartbeat(self):
        assert attribution.heartbeat() is None
        attribution.beat(
            engine="standard",
            round_index=0,
            steps=1,
            instance_size=2,
            nulls_created=0,
        )  # must not raise

    def test_lines_and_divergence_flag(self):
        stream = io.StringIO()
        hb = attribution.Heartbeat(stream)
        nulls = 0
        for round_index, delta in enumerate((20, 40, 100, 240)):
            nulls += delta
            hb.beat(
                engine="standard",
                round_index=round_index,
                steps=nulls,
                instance_size=nulls,
                nulls_created=nulls,
            )
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert len(lines) == 4
        for record in lines:
            assert record["type"] == "heartbeat"
            assert record["engine"] == "standard"
            assert record["pid"] == os.getpid()
        # Round 0's jump from zero counts toward the streak, so three
        # consecutive growing rounds flag at index 2 and stay flagged.
        assert [record["diverging"] for record in lines] == [
            False,
            False,
            True,
            True,
        ]
        assert lines[-1]["nulls_delta"] == 240

    def test_flat_growth_never_diverges(self):
        stream = io.StringIO()
        hb = attribution.Heartbeat(stream)
        for round_index in range(8):
            hb.beat(
                engine="seminaive",
                round_index=round_index,
                steps=round_index,
                instance_size=100,
                nulls_created=20 * (round_index + 1),
            )
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert not any(record["diverging"] for record in lines)

    def test_engines_emit_rounds(self, setting_2_1, source_2_1, tmp_path):
        path = tmp_path / "progress.jsonl"
        attribution.enable_heartbeat(str(path))
        try:
            standard_chase(source_2_1, list(setting_2_1.all_dependencies))
        finally:
            attribution.disable_heartbeat()
        lines = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert lines
        assert [record["round"] for record in lines] == list(
            range(len(lines))
        )
        assert all(record["engine"] == "standard" for record in lines)
        assert lines[-1]["atoms"] > 0

    def test_configure_from_env(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        attribution.configure_from_env(
            {
                "REPRO_ATTRIBUTION": "1",
                "REPRO_PROGRESS": str(path),
                "REPRO_PROGRESS_INTERVAL": "0.5",
            }
        )
        try:
            assert attribution.enabled()
            assert attribution.heartbeat() is not None
            assert attribution.heartbeat()._interval == 0.5
        finally:
            attribution.disable_heartbeat()
            attribution.enable(False)

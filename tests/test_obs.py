"""Tests for :mod:`repro.obs` -- spans, counters, sinks, schema.

Counter accuracy is checked against the hand-countable chase of
Example 2.1: M(a,b), N(a,b), N(a,c) under st1: M(x1,x2) → E(x1,x2) and
st2: N(x,y) → ∃z1,z2. E(x,z1) ∧ F(x,z2).  The standard chase fires st1
once and st2 once (the second N-trigger's conclusion is already
satisfiable, Remark 4.3), plus the target tgd once -- 3 firings, 3
fresh nulls, no egd merges.
"""

import json

import pytest

from repro import obs
from repro.chase import standard_chase
from repro.chase.result import ChaseOutcome
from repro.chase.seminaive import seminaive_chase
from repro.core.atoms import Atom
from repro.homomorphism import find_homomorphism
from repro.logic import parse_instance
from repro.logic.matching import exists_match
from repro.obs import (
    NULL_SINK,
    JsonLinesSink,
    LoggingSink,
    RecordingSink,
    TeeSink,
)
from repro.obs.provenance import Step, recording


@pytest.fixture(autouse=True)
def clean_registry():
    """Each test sees a zeroed registry and leaves the null sink behind."""
    previous = obs.install_sink(NULL_SINK)
    obs.reset()
    yield
    obs.install_sink(previous)
    obs.reset()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class TestSpans:
    def test_nesting_builds_slash_joined_paths(self):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        spans = obs.snapshot()["spans"]
        assert spans["outer"]["count"] == 1
        assert spans["outer/inner"]["count"] == 2
        assert "inner" not in spans

    def test_exception_safety_closes_span_and_restores_stack(self):
        with pytest.raises(RuntimeError):
            with obs.span("doomed"):
                raise RuntimeError("boom")
        spans = obs.snapshot()["spans"]
        assert spans["doomed"]["count"] == 1
        assert spans["doomed"]["seconds"] >= 0.0
        # The stack is unwound: a fresh span is top-level again.
        with obs.span("after"):
            pass
        assert "after" in obs.snapshot()["spans"]

    def test_span_times_accumulate(self):
        with obs.span("timed"):
            sum(range(1000))
        with obs.span("timed"):
            sum(range(1000))
        stats = obs.snapshot()["spans"]["timed"]
        assert stats["count"] == 2
        assert stats["seconds"] > 0.0

    def test_span_stats_nests_under_current_span(self):
        with obs.span("engine"):
            handle = obs.span_stats("phase")
            handle.record(0.25)
            handle.record(0.25)
        stats = obs.snapshot()["spans"]["engine/phase"]
        assert stats["count"] == 2
        assert stats["seconds"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Counter accuracy against a hand-counted chase
# ----------------------------------------------------------------------


class TestCounterAccuracy:
    def test_example_2_1_chase_counters(self, setting_2_1, source_2_1):
        with recording() as ledger:
            outcome = standard_chase(
                source_2_1, list(setting_2_1.all_dependencies)
            )
        assert outcome.successful
        counters = obs.snapshot()["counters"]
        tgd_steps = [s for s in ledger.steps if s.kind == "tgd"]
        egd_steps = [s for s in ledger.steps if s.kind == "egd"]
        assert counters["chase.tgd_firings"] == len(tgd_steps) == 3
        assert counters["chase.egd_merges"] == len(egd_steps) == 0
        assert counters["chase.nulls_created"] == 3
        gauges = obs.snapshot()["gauges"]
        assert gauges["chase.steps_to_fixpoint"] == outcome.steps == 3
        assert gauges["instance.nulls"] == 3

    def test_outcome_carries_elapsed_and_null_stats(
        self, setting_2_1, source_2_1
    ):
        outcome = standard_chase(source_2_1, list(setting_2_1.all_dependencies))
        assert outcome.elapsed_seconds > 0.0
        assert outcome.nulls_created == 3

    def test_seminaive_agrees_with_standard(self, setting_2_1, source_2_1):
        deps = list(setting_2_1.all_dependencies)
        standard_chase(source_2_1, deps)
        batched = dict(obs.snapshot()["counters"])
        obs.reset()
        outcome = seminaive_chase(source_2_1, deps)
        assert outcome.successful
        delta_driven = obs.snapshot()["counters"]
        for name in ("chase.tgd_firings", "chase.nulls_created"):
            assert delta_driven[name] == batched[name]

    def test_hom_search_attributes_matcher_work(self):
        left = parse_instance("E('a', 'b'), E('b', 'c')")
        assert find_homomorphism(left, left) is not None
        counters = obs.snapshot()["counters"]
        assert counters["hom.searches"] == 1
        assert counters["hom.candidates"] >= 2

    def test_unattributed_matching_is_not_counted(self):
        instance = parse_instance("E('a', 'b')")
        pattern = list(instance)
        names = set(obs.snapshot()["counters"])
        assert exists_match(pattern, instance)
        counters = obs.snapshot()["counters"]
        assert counters.get("match.candidates", 0) == 0
        assert counters.get("hom.candidates", 0) == 0
        # Unscoped work lands in no registered counter.
        assert set(counters) == names


# ----------------------------------------------------------------------
# Snapshot schema
# ----------------------------------------------------------------------


class TestSchema:
    def test_snapshot_round_trips_through_json(self):
        with obs.span("solve"):
            obs.counter("chase.tgd_firings").inc(4)
            obs.gauge("instance.nulls").set(2)
        state = obs.snapshot()
        assert json.loads(obs.to_json()) == state
        assert state["schema"] == obs.SCHEMA == "repro.obs/v1"
        assert set(state) == {
            "schema",
            "counters",
            "gauges",
            "spans",
            "histograms",
        }
        assert state["counters"]["chase.tgd_firings"] == 4
        assert state["gauges"]["instance.nulls"] == 2
        assert state["spans"]["solve"]["count"] == 1
        # Additive v1 extensions: every span entry carries min/max and
        # histogram-derived percentiles next to count/seconds.
        entry = state["spans"]["solve"]
        assert {"count", "seconds", "min", "max", "p50", "p95", "p99"} <= set(
            entry
        )
        assert 0.0 < entry["min"] <= entry["p50"] <= entry["max"]

    def test_reset_keeps_prefetched_handles_alive(self):
        handle = obs.counter("chase.tgd_firings")
        handle.inc(7)
        obs.reset()
        assert obs.counter("chase.tgd_firings") is handle
        assert handle.value == 0
        handle.inc()
        assert obs.snapshot()["counters"]["chase.tgd_firings"] == 1

    def test_render_profile_lists_spans_counters_gauges(self):
        with obs.span("solve"):
            obs.counter("chase.tgd_firings").inc()
        obs.gauge("instance.nulls").set(5)
        table = obs.render_stats(obs.snapshot())
        assert "solve" in table
        assert "chase.tgd_firings" in table
        assert "instance.nulls" in table


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------


class TestSinks:
    def test_null_sink_adds_no_attributes_to_hot_path_objects(self):
        # The default configuration must not decorate chase objects:
        # slotted classes stay slotted and carry no telemetry fields.
        for cls in (Atom, Step, ChaseOutcome):
            slots = cls.__slots__
            assert not any(
                marker in name
                for name in slots
                for marker in ("obs", "telemetry", "span", "sink")
            ), f"{cls.__name__} grew a telemetry attribute: {slots}"
        atom = parse_instance("E('a', 'b')").sorted_atoms()[0]
        assert not hasattr(atom, "__dict__")

    def test_recording_sink_sees_span_events(self):
        recorder = RecordingSink()
        obs.install_sink(recorder)
        with obs.span("solve"):
            obs.event("checkpoint", detail=1)
        kinds = [event["type"] for event in recorder.events]
        assert kinds == ["span_start", "event", "span_end"]
        assert recorder.of_type("event")[0]["detail"] == 1

    def test_events_skipped_under_null_sink(self):
        recorder = RecordingSink()
        obs.event("invisible")  # null sink installed by the fixture
        obs.install_sink(recorder)
        obs.event("visible")
        assert [e["name"] for e in recorder.events] == ["visible"]

    def test_jsonlines_sink_writes_valid_line_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonLinesSink(str(path))
        obs.install_sink(sink)
        with obs.span("solve"):
            obs.counter("chase.tgd_firings").inc()
        obs.get_telemetry().emit_snapshot()
        obs.install_sink(NULL_SINK)
        sink.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["type"] for e in events] == [
            "span_start",
            "span_end",
            "snapshot",
        ]
        assert events[-1]["data"]["counters"]["chase.tgd_firings"] == 1

    def test_trace_viewer_sink_writes_valid_trace_event_json(self, tmp_path):
        from repro.obs import TraceViewerSink

        path = tmp_path / "run.trace.json"
        sink = TraceViewerSink(str(path))
        obs.install_sink(sink)
        with obs.span("solve"):
            with obs.span("chase.standard"):
                obs.event("checkpoint", detail=7)
        obs.get_telemetry().emit_snapshot()
        obs.install_sink(NULL_SINK)
        sink.close()
        # Structural validity per the trace-event format: a JSON object
        # with a traceEvents array; every event carries ph/name/ts/pid/
        # tid; B and E events balance, so Perfetto can pair them.
        payload = json.loads(path.read_text(encoding="utf-8"))
        events = payload["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert {"ph", "name", "ts", "pid", "tid"} <= set(event)
            assert isinstance(event["ts"], (int, float))
        begins = [e for e in events if e["ph"] == "B"]
        ends = [e for e in events if e["ph"] == "E"]
        assert len(begins) == len(ends) == 2
        # Names are span leaves (nesting carries the hierarchy).
        assert [e["name"] for e in begins] == ["solve", "chase.standard"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {"checkpoint", "telemetry.snapshot"} == {
            e["name"] for e in instants
        }
        checkpoint = next(e for e in instants if e["name"] == "checkpoint")
        assert checkpoint["args"]["detail"] == 7

    def test_trace_viewer_sink_valid_after_failed_run(self, tmp_path):
        from repro.obs import TraceViewerSink

        path = tmp_path / "fail.trace.json"
        sink = TraceViewerSink(str(path))
        obs.install_sink(sink)
        with pytest.raises(RuntimeError):
            with obs.span("solve"):
                raise RuntimeError("chase blew up")
        obs.install_sink(NULL_SINK)
        sink.close()
        payload = json.loads(path.read_text(encoding="utf-8"))
        # The span context manager is exception-safe, so even the
        # failing span closed before the sink was finalized.  Lane
        # metadata ("M") precedes the actual events.
        phases = [e["ph"] for e in payload["traceEvents"] if e["ph"] != "M"]
        assert phases == ["B", "E"]

    def test_trace_viewer_close_is_idempotent(self, tmp_path):
        from repro.obs import TraceViewerSink

        path = tmp_path / "twice.trace.json"
        sink = TraceViewerSink(str(path))
        obs.install_sink(sink)
        obs.event("only")
        obs.install_sink(NULL_SINK)
        sink.close()
        sink.close()
        payload = json.loads(path.read_text(encoding="utf-8"))
        names = [
            e["name"] for e in payload["traceEvents"] if e["ph"] != "M"
        ]
        assert names == ["only"]

    def test_tee_sink_duplicates_events(self):
        first, second = RecordingSink(), RecordingSink()
        obs.install_sink(TeeSink(first, second))
        obs.event("both")
        assert len(first.events) == len(second.events) == 1

    def test_configure_from_env_installs_logging_sink(self):
        sink = obs.configure_from_env({"REPRO_LOG": "debug"})
        assert isinstance(sink, LoggingSink)
        assert obs.get_telemetry().sink is sink
        assert obs.configure_from_env({}) is None
        assert obs.configure_from_env({"REPRO_LOG": "bogus"}) is None

    def test_configure_from_env_tees_with_existing_sink(self):
        recorder = RecordingSink()
        obs.install_sink(recorder)
        sink = obs.configure_from_env({"REPRO_LOG": "info"})
        assert isinstance(sink, LoggingSink)
        assert isinstance(obs.get_telemetry().sink, TeeSink)
        obs.event("fan-out")
        assert [e["name"] for e in recorder.events] == ["fan-out"]

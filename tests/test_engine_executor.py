"""The process-pool executor: determinism, fallbacks, and wiring.

The load-bearing guarantee: for every entry point that accepts an
``executor``, a parallel run returns *exactly* what the serial run
returns -- same answer sets, same solution spaces up to isomorphism.
"""

import os

import pytest

import repro.obs as obs
from repro.answering.decision import AnswerLanguage
from repro.answering.semantics import all_four_semantics, answers_over_space
from repro.core.errors import ReproError, WorkerCrashed
from repro.core.instance import isomorphic
from repro.cwa.enumeration import enumerate_cwa_solutions
from repro.engine import Executor, default_workers
from repro.engine.executor import WORKERS_ENV
from repro.generators.settings_library import (
    example_2_1_setting,
    example_2_1_source,
    example_5_3_setting,
    example_5_3_source,
)
from repro.logic import parse_query

SEMANTICS = ("certain", "potential_certain", "persistent_maybe", "maybe")


def _square(x):
    return x * x


def _concat_chunk(chunk, suffix):
    return [item + suffix for item in chunk]


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.reset()
    yield
    obs.reset()


class TestDefaults:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert default_workers() == 1
        assert not Executor().parallel

    def test_env_sets_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert default_workers() == 3
        assert Executor().workers == 3

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        assert default_workers() == 1

    def test_explicit_workers_win(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert Executor(workers=2).workers == 2


class TestMapTasks:
    def test_serial_map(self):
        with Executor(workers=1) as executor:
            assert executor.map_worlds(_square, [3, 1, 2]) == [9, 1, 4]
        assert obs.snapshot()["counters"]["engine.serial_tasks"] == 3

    def test_parallel_map_preserves_order(self):
        with Executor(workers=2) as executor:
            result = executor.map_worlds(_square, list(range(16)))
        assert result == [x * x for x in range(16)]
        found = obs.snapshot()["counters"]
        assert found["engine.tasks_dispatched"] == 16

    def test_parallel_records_worker_time(self):
        with Executor(workers=2) as executor:
            executor.map_worlds(_square, list(range(4)))
        spans = obs.snapshot()["spans"]
        assert spans["engine.worlds"]["count"] == 4

    def test_unpicklable_falls_back_to_serial(self):
        with Executor(workers=2) as executor:
            result = executor.map_tasks(lambda x: x + 1, [(1,), (2,)])
        assert result == [2, 3]
        found = obs.snapshot()["counters"]
        assert found["engine.pickle_fallbacks"] == 1
        assert found.get("engine.tasks_dispatched", 0) == 0

    def test_empty_input(self):
        with Executor(workers=2) as executor:
            assert executor.map_worlds(_square, []) == []

    def test_map_valuations_chunks(self):
        with Executor(workers=2) as executor:
            chunks = executor.map_valuations(
                _concat_chunk, ["a", "b", "c", "d", "e"], "!", chunk_size=2
            )
        flattened = [item for chunk in chunks for item in chunk]
        assert flattened == ["a!", "b!", "c!", "d!", "e!"]


def _exit_in_child(x, parent_pid):
    """Kills the worker process it runs in; harmless in the parent."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return x


class TestWorkerCrash:
    def test_crash_raises_typed_error_and_next_batch_recovers(self):
        with Executor(workers=2) as executor:
            with pytest.raises(WorkerCrashed) as caught:
                executor.map_tasks(
                    _exit_in_child,
                    [(1, os.getpid()), (2, os.getpid())],
                    label="test.crash",
                )
            assert caught.value.label == "test.crash"
            assert caught.value.tasks == 2
            assert "test.crash" in str(caught.value)
            assert isinstance(caught.value, ReproError)
            assert repr(executor) == "Executor(workers=2, pool=idle)"
            assert executor.map_worlds(_square, [1, 2, 3]) == [1, 4, 9]


class TestProbeCache:
    def test_repeat_submissions_hit_probe_cache(self):
        with Executor(workers=2) as executor:
            executor.map_worlds(_square, [1, 2])
            executor.map_worlds(_square, [3, 4])
            executor.map_worlds(_square, [5, 6])
        found = obs.snapshot()["counters"]
        assert found["engine.probe_cache_hits"] == 2
        assert found["engine.tasks_dispatched"] == 6

    def test_unpicklable_verdict_is_cached(self):
        bad = lambda x: x + 1  # noqa: E731 -- lambdas cannot be pickled
        with Executor(workers=2) as executor:
            first = executor.map_tasks(bad, [(1,), (2,)])
            second = executor.map_tasks(bad, [(3,), (4,)])
        assert first == [2, 3]
        assert second == [4, 5]
        found = obs.snapshot()["counters"]
        # Both batches fell back to serial, but only the first paid the
        # probe; the second was answered from the cache.
        assert found["engine.pickle_fallbacks"] == 2
        assert found["engine.probe_cache_hits"] == 1
        assert found.get("engine.tasks_dispatched", 0) == 0


class TestSemanticsParity:
    def test_all_four_semantics_identical(self):
        setting = example_2_1_setting()
        source = example_2_1_source()
        query = parse_query("Q(x) :- E(x, y)")
        serial = all_four_semantics(setting, source, query)
        with Executor(workers=2) as executor:
            parallel = all_four_semantics(
                setting, source, query, executor=executor
            )
        assert serial == parallel

    def test_answers_over_space_identical(self):
        setting = example_2_1_setting()
        source = example_2_1_source()
        query = parse_query("Q(x) :- G(x, y)")
        space = enumerate_cwa_solutions(setting, source)
        with Executor(workers=2) as executor:
            for mode in SEMANTICS:
                serial = answers_over_space(
                    query, space, setting.target_dependencies, mode
                )
                parallel = answers_over_space(
                    query,
                    space,
                    setting.target_dependencies,
                    mode,
                    executor=executor,
                )
                assert serial == parallel, mode


class TestEnumerationParity:
    @pytest.mark.parametrize("pairs", [1, 2])
    def test_example_5_3_space(self, pairs):
        setting = example_5_3_setting()
        source = example_5_3_source(pairs)
        serial = enumerate_cwa_solutions(setting, source)
        with Executor(workers=2) as executor:
            parallel = enumerate_cwa_solutions(
                setting, source, executor=executor
            )
        assert len(serial) == len(parallel)
        for candidate in serial:
            assert any(isomorphic(candidate, other) for other in parallel)


def _merged_counters(snapshot):
    """Counter totals that must agree between serial and pooled runs.

    ``engine.*`` accounting legitimately differs (serial_tasks vs
    tasks_dispatched), and ``plan.*`` differs because each worker
    process compiles into its own plan cache.
    """
    return {
        name: value
        for name, value in snapshot["counters"].items()
        if not name.startswith(("engine.", "plan."))
    }


class TestTelemetryParity:
    """Merged worker telemetry equals one registry that saw every task."""

    def _snapshots(self):
        setting = example_2_1_setting()
        source = example_2_1_source()
        query = parse_query("Q(x) :- E(x, y)")
        obs.reset()
        serial = all_four_semantics(setting, source, query)
        serial_snapshot = obs.snapshot()
        obs.reset()
        with Executor(workers=2) as executor:
            parallel = all_four_semantics(
                setting, source, query, executor=executor
            )
        parallel_snapshot = obs.snapshot()
        assert serial == parallel
        return serial_snapshot, parallel_snapshot

    def test_counter_totals_agree(self):
        serial_snapshot, parallel_snapshot = self._snapshots()
        assert _merged_counters(serial_snapshot) == _merged_counters(
            parallel_snapshot
        )

    def test_span_counts_agree_on_shared_paths(self):
        serial_snapshot, parallel_snapshot = self._snapshots()
        # obs.reset() zeroes span stats but keeps registered paths, so
        # compare only paths that actually fired in this run.
        serial_spans = {
            path: entry
            for path, entry in serial_snapshot["spans"].items()
            if entry["count"]
        }
        parallel_spans = parallel_snapshot["spans"]
        assert serial_spans, "serial run recorded no spans"
        for path, entry in serial_spans.items():
            assert entry["count"] == parallel_spans[path]["count"], path

    def test_executor_histograms_count_dispatched_tasks(self):
        with Executor(workers=2) as executor:
            executor.map_worlds(_square, list(range(6)))
        snapshot = obs.snapshot()
        dispatched = snapshot["counters"]["engine.tasks_dispatched"]
        assert dispatched == 6
        histograms = snapshot["histograms"]
        assert histograms["engine.executor.task_seconds"]["count"] == 6
        waits = histograms["engine.executor.queue_wait_seconds"]
        assert waits["count"] == 6
        assert waits["min"] >= 0.0

    def test_worker_spans_nest_under_parent_path(self):
        with Executor(workers=2) as executor:
            with obs.span("outer"):
                executor.map_worlds(_square, list(range(4)))
        spans = obs.snapshot()["spans"]
        assert spans["outer/engine.worlds"]["count"] == 4
        # Merging worker blobs must not zero the parent's span minima
        # (forked workers export only entries their task touched).
        assert spans["outer"]["min"] > 0.0
        assert spans["outer/engine.worlds"]["min"] > 0.0

    def test_worker_events_carry_lanes(self):
        sink = obs.RecordingSink()
        previous = obs.install_sink(sink)
        try:
            with Executor(workers=2) as executor:
                executor.map_worlds(_square, list(range(8)))
        finally:
            obs.install_sink(previous)
        worker_events = [e for e in sink.events if "lane" in e]
        assert worker_events, "no worker trace events replayed"
        lanes = {e["lane"] for e in worker_events}
        assert all(lane != os.getpid() for lane in lanes)
        trace_ids = {e.get("trace") for e in worker_events}
        assert len(trace_ids) == 1
        for lane in lanes:
            in_lane = [e for e in worker_events if e["lane"] == lane]
            starts = sum(1 for e in in_lane if e["type"] == "span_start")
            ends = sum(1 for e in in_lane if e["type"] == "span_end")
            assert starts == ends


class TestDecisionParity:
    def test_general_setting_membership(self):
        # Example 5.3 settings are outside the CanSol classes, so the
        # decision procedure walks the enumerated space -- the branch
        # the executor parallelizes.
        setting = example_5_3_setting()
        source = example_5_3_source(1)
        query = parse_query("Q() :- E(x, y, z)", setting.target_schema)
        serial = AnswerLanguage(setting, query, "maybe")
        with Executor(workers=2) as executor:
            parallel = AnswerLanguage(
                setting, query, "maybe", executor=executor
            )
            assert serial(source, ()) == parallel(source, ())

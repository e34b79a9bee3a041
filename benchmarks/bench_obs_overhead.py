"""Telemetry overhead: what instrumentation costs on the solve path.

Every ``solve`` runs under ``repro.obs`` unconditionally -- counters,
span histograms, and (only when a sink is installed) trace events.  The
operational claim this module regenerates: the quiet path (NULL_SINK,
the default) adds negligible cost, and even a live recording sink keeps
the overhead bounded, so leaving ``--trace-viewer`` or ``--metrics-log``
on in production is safe.

Two benchmarks, measured in the same session:

* ``solve_telemetry_quiet`` -- no sink installed (events suppressed);
* ``solve_telemetry_emitting`` -- a ``RecordingSink`` receiving every
  span event.

The gate is in the test: an emitting solve must cost less than
``MAX_OVERHEAD_RATIO`` times a quiet one timed just before it, and
attribution must be off.
"""

import time

import pytest

import repro.obs as obs
from repro.exchange import solve
from repro.generators import example_2_1_scaled_source
from repro.generators.settings_library import example_2_1_setting

#: Scaled-source size: big enough that the solve does real chase work,
#: small enough that the pair of benchmarks stays in CI budget.
SOURCE_PAIRS = 48

#: Below this quiet-path cost, timer noise dominates the ratio and the
#: overhead bound is skipped (same policy as bench_engine).
TIMING_FLOOR_SECONDS = 0.01

#: A recording sink may not cost more than this multiple of the quiet
#: path.  Deliberately loose: the claim is "bounded", not "free".
MAX_OVERHEAD_RATIO = 3.0


@pytest.fixture(autouse=True)
def quiet_telemetry():
    previous = obs.install_sink(obs.NULL_SINK)
    obs.reset()
    # The overhead bound below is only meaningful for the default
    # configuration: attributed execution (explain-plan's per-step
    # rows) must never be on in a bench leg.
    assert not obs.attribution.enabled(), (
        "attributed execution is on; the obs overhead gate measures "
        "the default path (attribution must stay opt-in)"
    )
    yield
    obs.install_sink(previous)
    obs.reset()


def _workload():
    return example_2_1_setting(), example_2_1_scaled_source(SOURCE_PAIRS)


class TestObsOverhead:
    def test_solve_telemetry_quiet(self, benchmark):
        """The default path: counters and histograms, no event sink."""
        setting, source = _workload()
        result = benchmark(solve, setting, source)
        assert result.cwa_solution_exists
        assert obs.snapshot()["counters"]["chase.tgd_firings"] > 0

    def test_solve_telemetry_emitting(self, benchmark, report):
        """The traced path: every span start/end hits a live sink."""
        setting, source = _workload()

        started = time.perf_counter()
        solve(setting, source)
        quiet_time = time.perf_counter() - started

        sink = obs.RecordingSink()
        obs.install_sink(sink)
        started = time.perf_counter()
        result = solve(setting, source)
        emitting_time = time.perf_counter() - started
        assert result.cwa_solution_exists
        assert sink.events, "live sink received no span events"
        benchmark(solve, setting, source)

        table = report.table(
            f"Telemetry overhead, example_2_1_scaled_source({SOURCE_PAIRS})",
            ("path", "first-run seconds", "events"),
        )
        table.row("quiet", f"{quiet_time:.4f}", 0)
        table.row("emitting", f"{emitting_time:.4f}", len(sink.events))
        if quiet_time >= TIMING_FLOOR_SECONDS:
            assert emitting_time < quiet_time * MAX_OVERHEAD_RATIO

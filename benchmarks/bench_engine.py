"""The engine layer: the four-semantics battery and the cold/warm cache split.

Regenerates the operational claims behind ``repro.engine`` (DESIGN.md
does not cover these -- they are implementation guarantees, not paper
theorems):

* the four-semantics battery answers the same on every benchmark round;
* a warm :class:`repro.engine.ResultCache` serves ``solve`` without
  re-running the chase or the core computation, and the warm path is
  measurably cheaper than the cold one.

Both claims are asserted in the tests.  The engine cache's end-to-end
cost is priced by the ``edit_stream`` workload of ``bench/``.
"""

import time

import pytest

import repro.obs as obs
from repro.answering import all_four_semantics
from repro.engine import ResultCache
from repro.exchange import solve
from repro.generators import example_2_1_scaled_source
from repro.generators.settings_library import (
    example_2_1_setting,
    example_2_1_source,
)
from repro.logic import parse_query

#: The Table-1-style query battery over Example 2.1's target schema.
QUERY_TEXTS = (
    "Q(x) :- E(x, y)",
    "Q(x) :- F(x, y)",
    "Q(x, y) :- E(x, y)",
    "Q(x) :- E(x, y) & F(y, z)",
)

#: How many cold chase seconds we require before trusting a wall-clock
#: comparison; below this, timer noise dominates any real signal.
TIMING_FLOOR_SECONDS = 0.01


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.reset()
    yield
    obs.reset()


def _semantics_battery(setting, source, queries):
    return [all_four_semantics(setting, source, query) for query in queries]


class TestSemanticsBattery:
    def test_semantics_batch(self, benchmark):
        setting = example_2_1_setting()
        source = example_2_1_source()
        queries = [parse_query(text) for text in QUERY_TEXTS]
        expected = _semantics_battery(setting, source, queries)
        assert benchmark(_semantics_battery, setting, source, queries) == expected


class TestCacheColdWarm:
    def test_cold_solve_baseline(self, benchmark):
        """The uncached chase+core cost on the scaled source."""
        setting = example_2_1_setting()
        source = example_2_1_scaled_source(64)
        result = benchmark(solve, setting, source)
        assert result.cwa_solution_exists

    def test_warm_solve_hits_cache(self, benchmark, report, tmp_path):
        setting = example_2_1_setting()
        source = example_2_1_scaled_source(64)
        cache = ResultCache(tmp_path)

        started = time.perf_counter()
        cold = solve(setting, source, cache=cache)
        cold_time = time.perf_counter() - started

        obs.reset()
        started = time.perf_counter()
        warm = solve(setting, source, cache=cache)
        warm_time = time.perf_counter() - started

        found = obs.snapshot()["counters"]
        assert found["solve.cache_hits"] == 1
        assert found["engine.cache.hits"] >= 1
        assert all(
            value == 0
            for name, value in found.items()
            if name.startswith("chase.") or name.startswith("core.")
        )
        assert warm.canonical_solution == cold.canonical_solution
        assert warm.core_solution == cold.core_solution

        table = report.table(
            "Cold vs warm solve, example_2_1_scaled_source(64)",
            ("path", "seconds", "cache hits"),
        )
        table.row("cold", f"{cold_time:.4f}", 0)
        table.row("warm", f"{warm_time:.4f}", found["engine.cache.hits"])
        if cold_time >= TIMING_FLOOR_SECONDS:
            assert warm_time < cold_time

        # The benchmarked path is all warm hits: the persisted median is
        # the cache read cost, to set against the cold baseline above.
        benchmark(solve, setting, source, cache=cache)

"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one artifact of the paper's
evaluation (see DESIGN.md §2): it *asserts* the qualitative claim (who
is polynomial, who blows up, which reductions are equivalences) and
*measures* with pytest-benchmark.  A report table is printed per module
so `pytest benchmarks/ --benchmark-only -s` reads like the paper.
"""

import json
import math
import pathlib

import pytest

#: Written at the repo root after every benchmark session so the bench
#: trajectory accumulates in version control.  One flat JSON object per
#: file: ``<bench name>.median_seconds`` / ``.rounds`` / ``.params`` keys
#: plus a ``counter.<name>`` entry per ``repro.obs`` counter touched by
#: the session.  Table 1 benchmarks get their own file.
BENCH_CHASE_FILE = "BENCH_chase.json"
BENCH_TABLE1_FILE = "BENCH_table1.json"
BENCH_ENGINE_FILE = "BENCH_engine.json"
BENCH_MATCHING_FILE = "BENCH_matching.json"
BENCH_OBS_FILE = "BENCH_obs.json"
BENCH_INCREMENTAL_FILE = "BENCH_incremental.json"


def fit_polynomial_degree(sizes, times):
    """Least-squares slope of log(time) against log(size).

    A slope bounded by a small constant across a geometric size sweep is
    the observable signature of polynomial (here: low-degree) scaling.
    Tiny times are clamped to avoid log(0) noise.
    """
    pairs = [
        (math.log(size), math.log(max(time, 1e-7)))
        for size, time in zip(sizes, times)
    ]
    n = len(pairs)
    mean_x = sum(x for x, _ in pairs) / n
    mean_y = sum(y for _, y in pairs) / n
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in pairs)
    denominator = sum((x - mean_x) ** 2 for x, _ in pairs)
    if denominator == 0:
        return 0.0
    return numerator / denominator


def print_table(title, headers, rows):
    """Render a small fixed-width table to stdout."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))


def _median_seconds(bench):
    """The median of one pytest-benchmark result, defensively.

    ``bench.stats`` is the Metadata object in current pytest-benchmark
    releases and its ``.stats`` holds the Stats with ``.median``; older
    layouts expose ``.median`` directly.  Returns None when neither does.
    """
    stats = getattr(bench, "stats", None)
    for holder in (getattr(stats, "stats", None), stats, bench):
        median = getattr(holder, "median", None)
        if isinstance(median, (int, float)):
            return median
    return None


def _flat_record(benches):
    """One flat JSON object for a group of benchmark results."""
    record = {"schema": "repro.bench/v1"}
    for bench in benches:
        name = getattr(bench, "name", None) or getattr(bench, "fullname", "?")
        median = _median_seconds(bench)
        if median is not None:
            record[f"{name}.median_seconds"] = median
        rounds = getattr(getattr(bench, "stats", None), "rounds", None)
        if isinstance(rounds, int):
            record[f"{name}.rounds"] = rounds
        params = getattr(bench, "params", None)
        if params:
            record[f"{name}.params"] = json.dumps(
                params, sort_keys=True, default=str
            )
    try:
        from repro.obs import snapshot

        for counter_name, value in snapshot()["counters"].items():
            record[f"counter.{counter_name}"] = value
    except Exception:  # pragma: no cover - repro not importable
        pass
    return record


def pytest_sessionfinish(session, exitstatus):
    """Persist benchmark medians + telemetry counters at the repo root."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return
    benches = [
        bench
        for bench in getattr(bench_session, "benchmarks", None) or []
        if _median_seconds(bench) is not None
    ]
    if not benches:
        return
    root = pathlib.Path(__file__).resolve().parent.parent
    groups = {
        BENCH_CHASE_FILE: [],
        BENCH_TABLE1_FILE: [],
        BENCH_ENGINE_FILE: [],
        BENCH_MATCHING_FILE: [],
        BENCH_OBS_FILE: [],
        BENCH_INCREMENTAL_FILE: [],
    }
    for bench in benches:
        fullname = getattr(bench, "fullname", "") or ""
        if "table1" in fullname:
            target = BENCH_TABLE1_FILE
        elif "bench_engine" in fullname:
            target = BENCH_ENGINE_FILE
        elif "bench_matching" in fullname:
            target = BENCH_MATCHING_FILE
        elif "bench_obs" in fullname:
            target = BENCH_OBS_FILE
        elif "bench_incremental" in fullname:
            target = BENCH_INCREMENTAL_FILE
        else:
            target = BENCH_CHASE_FILE
        groups[target].append(bench)
    for filename, group in groups.items():
        if not group:
            continue
        payload = json.dumps(_flat_record(group), indent=2, sort_keys=True)
        (root / filename).write_text(payload + "\n", encoding="utf-8")


@pytest.fixture
def report():
    """A fixture collecting rows and printing them after the test."""

    class Report:
        def __init__(self):
            self.title = ""
            self.headers = ()
            self.rows = []

        def table(self, title, headers):
            self.title = title
            self.headers = headers
            return self

        def row(self, *cells):
            self.rows.append(cells)

        def flush(self):
            if self.rows:
                print_table(self.title, self.headers, self.rows)

    instance = Report()
    yield instance
    instance.flush()

"""Snapshot/metrics-log aggregation behind ``repro stats``.

The operator-facing complement of ``bench/compare.py``: where the
benchmark compares two runs of its workloads, ``repro stats`` reads
telemetry that real runs left behind -- a ``repro.obs/v1`` snapshot file (``obs.to_json``)
or a ``repro.obs/log/v1`` metrics log (``--metrics-log`` /
``REPRO_METRICS``, one ``run`` record per line) -- and renders either

* an **aggregate table** (one file): spans and histograms with count,
  total, min/max and p50/p95/p99, then counters and gauges; a metrics
  log with several runs is folded into one aggregate first (bucket
  merges are exact, so percentiles are true over all runs); or
* a **delta view** (two files): side-by-side counters, span totals and
  tail latencies, with ratios -- the ``before/after`` workflow for
  operators watching a deployment.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from ..core.errors import ReproError
from .metrics import LOG_SCHEMA, Histogram
from .telemetry import SCHEMA


def _span_histogram(entry: dict, name: str = "") -> Histogram:
    """Rebuild the histogram behind one snapshot span entry.

    Span entries spell the histogram's ``sum`` as ``seconds``; the
    sparse ``buckets`` map carries the distribution.  Entries written
    by pre-histogram consumers (no buckets) still merge: count and
    total survive, percentiles degrade to the min/max envelope.
    """
    state = dict(entry)
    if "sum" not in state:
        state["sum"] = state.get("seconds", 0.0)
    return Histogram.from_dict(state, name)


def merge_snapshots(into: dict, fresh: dict) -> dict:
    """Fold snapshot ``fresh`` into ``into`` (in place; returns it).

    Counters add, gauges are last-write-wins, spans and histograms
    merge bucket-wise through :class:`Histogram`, so ``repro stats``
    over a multi-run log agrees with one registry that saw every run.
    """
    counters = into.setdefault("counters", {})
    for name, value in fresh.get("counters", {}).items():
        counters[name] = counters.get(name, 0) + value
    gauges = into.setdefault("gauges", {})
    gauges.update(fresh.get("gauges", {}))
    spans = into.setdefault("spans", {})
    for path, entry in fresh.get("spans", {}).items():
        if path in spans:
            merged = _span_histogram(spans[path], path)
            merged.merge_dict(
                {**entry, "sum": entry.get("seconds", entry.get("sum", 0.0))}
            )
            state = merged.to_dict()
            state["seconds"] = state.pop("sum")
            spans[path] = state
        else:
            spans[path] = dict(entry)
    histograms = into.setdefault("histograms", {})
    for name, entry in fresh.get("histograms", {}).items():
        if name in histograms:
            merged = Histogram.from_dict(histograms[name], name)
            merged.merge_dict(entry)
            histograms[name] = merged.to_dict()
        else:
            histograms[name] = dict(entry)
    return into


def load_stats_file(path: str) -> Tuple[dict, int]:
    """Load one snapshot or metrics-log file.

    Returns ``(merged snapshot, number of runs folded in)``.  A plain
    ``repro.obs/v1`` snapshot counts as one run; a ``repro.obs/log/v1``
    JSONL file contributes every ``run`` record's snapshot.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ReproError(f"cannot read stats file {path}: {error}") from None
    stripped = text.strip()
    if not stripped:
        raise ReproError(f"{path}: empty stats file")
    # A whole-file parse distinguishes a single snapshot object from a
    # multi-line metrics log (whose concatenated lines are not one JSON
    # document once there is more than one record).
    document: Optional[object] = None
    try:
        document = json.loads(stripped)
    except json.JSONDecodeError:
        document = None
    if isinstance(document, dict) and document.get("schema") == SCHEMA:
        return document, 1
    if isinstance(document, dict) and document.get("schema") == LOG_SCHEMA:
        lines = [stripped]
    else:
        lines = stripped.splitlines()
    merged: dict = {"schema": SCHEMA}
    runs = 0
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ReproError(
                f"{path}:{number}: invalid metrics-log JSON: {error}"
            ) from None
        if not isinstance(record, dict) or record.get("schema") != LOG_SCHEMA:
            raise ReproError(
                f"{path}:{number}: expected a {LOG_SCHEMA!r} record "
                f"(or a whole-file {SCHEMA!r} snapshot)"
            )
        snapshot = record.get("snapshot")
        if record.get("kind") == "run" and isinstance(snapshot, dict):
            merge_snapshots(merged, snapshot)
            runs += 1
    if runs == 0:
        raise ReproError(f"{path}: no run records to aggregate")
    return merged, runs


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

_LATENCY_COLUMNS = ("count", "seconds", "min", "p50", "p95", "p99", "max")


def _latency_rows(entries: Dict[str, dict]) -> List[Tuple[str, dict]]:
    return sorted(entries.items())


def _seconds_of(entry: dict) -> float:
    return entry.get("seconds", entry.get("sum", 0.0))


def _truncate(
    rows: List[Tuple[str, object]], top: Optional[int], key
) -> Tuple[List[Tuple[str, object]], int]:
    """``--top N``: re-sort by cost (descending) and keep the N head.

    Returns ``(kept rows, number dropped)``; ``top=None`` keeps the
    alphabetical order untouched.
    """
    if top is None:
        return rows, 0
    ranked = sorted(rows, key=lambda item: (-key(item[1]), item[0]))
    return ranked[: max(0, top)], max(0, len(ranked) - max(0, top))


def render_stats(
    snapshot: dict,
    *,
    runs: int = 1,
    title: str = "",
    top: Optional[int] = None,
) -> str:
    """The aggregate table: spans, histograms, counters, gauges.

    ``top`` switches each section from alphabetical order to a
    self-time leaderboard (counters and gauges rank by value) truncated
    to the ``top`` most expensive rows, with a per-section footer for
    what was dropped.
    """
    lines: List[str] = []
    header = title or "telemetry stats"
    lines.append(f"=== {header} ({runs} run(s)) ===")
    for section, key in (("spans", "spans"), ("histograms", "histograms")):
        entries = snapshot.get(key, {})
        if not entries:
            continue
        rows, dropped = _truncate(_latency_rows(entries), top, _seconds_of)
        if not rows:
            continue
        width = max(max(len(name) for name, _ in rows), len(section))
        lines.append("")
        lines.append(
            f"{section.ljust(width)}  {'count':>8}  {'total':>10}  "
            f"{'min':>10}  {'p50':>10}  {'p95':>10}  {'p99':>10}  {'max':>10}"
        )
        for name, entry in rows:
            total = _seconds_of(entry)
            lines.append(
                f"{name.ljust(width)}  {entry.get('count', 0):>8}  "
                f"{total:>10.4f}  {entry.get('min', 0.0):>10.6f}  "
                f"{entry.get('p50', 0.0):>10.6f}  "
                f"{entry.get('p95', 0.0):>10.6f}  "
                f"{entry.get('p99', 0.0):>10.6f}  "
                f"{entry.get('max', 0.0):>10.6f}"
            )
        if dropped:
            lines.append(f"... {dropped} more {section} (raise --top)")
    counters = snapshot.get("counters", {})
    if counters:
        rows, dropped = _truncate(
            sorted(counters.items()), top, lambda value: value
        )
        if rows:
            width = max(max(len(name) for name, _ in rows), len("counter"))
            lines.append("")
            lines.append(f"{'counter'.ljust(width)}  {'total':>12}")
            for name, value in rows:
                lines.append(f"{name.ljust(width)}  {value:>12}")
            if dropped:
                lines.append(f"... {dropped} more counters (raise --top)")
    gauges = snapshot.get("gauges", {})
    if gauges:
        rows, dropped = _truncate(
            sorted(gauges.items()), top, lambda value: value
        )
        if rows:
            width = max(max(len(name) for name, _ in rows), len("gauge"))
            lines.append("")
            lines.append(f"{'gauge'.ljust(width)}  {'value':>12}")
            for name, value in rows:
                lines.append(f"{name.ljust(width)}  {value:>12}")
            if dropped:
                lines.append(f"... {dropped} more gauges (raise --top)")
    return "\n".join(lines)


def _ratio(baseline: float, fresh: float) -> str:
    if baseline <= 0:
        return "--" if fresh <= 0 else "new"
    return f"{fresh / baseline:.2f}x"


def render_delta(baseline: dict, fresh: dict) -> str:
    """The two-run delta view: counters, then span/histogram latencies.

    ``baseline`` first, ``fresh`` second (same order as
    ``bench/compare.py``); ratios are fresh/baseline.
    """
    lines: List[str] = ["=== telemetry delta (fresh vs baseline) ==="]
    names = sorted(
        set(baseline.get("counters", {})) | set(fresh.get("counters", {}))
    )
    if names:
        width = max(max(len(name) for name in names), len("counter"))
        lines.append("")
        lines.append(
            f"{'counter'.ljust(width)}  {'baseline':>12}  {'fresh':>12}  "
            f"{'delta':>12}  {'ratio':>7}"
        )
        for name in names:
            base = baseline.get("counters", {}).get(name, 0)
            new = fresh.get("counters", {}).get(name, 0)
            lines.append(
                f"{name.ljust(width)}  {base:>12}  {new:>12}  "
                f"{new - base:>+12}  {_ratio(base, new):>7}"
            )
    for section in ("spans", "histograms"):
        paths = sorted(
            set(baseline.get(section, {})) | set(fresh.get(section, {}))
        )
        if not paths:
            continue
        width = max(max(len(path) for path in paths), len(section))
        lines.append("")
        lines.append(
            f"{section.ljust(width)}  {'base total':>11}  {'fresh total':>11}"
            f"  {'ratio':>7}  {'base p95':>10}  {'fresh p95':>10}"
        )
        for path in paths:
            base = baseline.get(section, {}).get(path, {})
            new = fresh.get(section, {}).get(path, {})
            base_total = base.get("seconds", base.get("sum", 0.0))
            new_total = new.get("seconds", new.get("sum", 0.0))
            lines.append(
                f"{path.ljust(width)}  {base_total:>11.4f}  "
                f"{new_total:>11.4f}  {_ratio(base_total, new_total):>7}  "
                f"{base.get('p95', 0.0):>10.6f}  {new.get('p95', 0.0):>10.6f}"
            )
    return "\n".join(lines)

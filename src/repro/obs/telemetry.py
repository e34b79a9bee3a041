"""The telemetry core: spans, counters, gauges, snapshots.

One :class:`Telemetry` registry aggregates everything in memory:

* **spans** -- hierarchical wall-time sections (``with span("solve"):``).
  Nesting builds ``/``-joined paths (``solve/chase.standard``); each path
  aggregates a call count and total seconds via :func:`time.perf_counter`.
* **counters** -- monotonically increasing integers
  (``counter("chase.tgd_firings").inc()``).
* **gauges** -- last-write-wins numbers (``gauge("instance.nulls").set(n)``).

Aggregation always happens (the updates are single dict/attribute
operations, cheap enough for the chase's hot loops); *events* are only
constructed and emitted when a non-null sink is installed, so the default
configuration adds no observable overhead.

``snapshot()`` returns the aggregate state as a plain dict with the
stable schema documented in ``docs/observability.md``; ``to_json()`` is
its JSON rendering.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Union

from .metrics import Histogram
from .sinks import NULL_SINK, EventSink

SCHEMA = "repro.obs/v1"

Number = Union[int, float]

#: Callables invoked with the registry at every ``snapshot()`` so
#: lazily-derived gauges (peak RSS, plan-cache size) are fresh without
#: the hot paths paying for them.  Modules register their own provider
#: at import time; provider failures never break a snapshot.
_GAUGE_PROVIDERS: List[Callable[["Telemetry"], None]] = []


def register_gauge_provider(provider: Callable[["Telemetry"], None]) -> None:
    """Run ``provider(telemetry)`` before every snapshot (errors ignored)."""
    _GAUGE_PROVIDERS.append(provider)


#: Named auxiliary state sections carried by snapshots.  Each section
#: supplies ``export()`` (a JSON-able payload, or a falsy value to omit
#: the section) and ``reset()``.  This lets modules like
#: ``repro.obs.attribution`` appear in snapshots and clear on
#: :meth:`Telemetry.reset` without this module knowing about them.
_STATE_SECTIONS: Dict[str, dict] = {}


def register_state_section(
    name: str,
    *,
    export: Callable[[], object],
    reset: Callable[[], None],
) -> None:
    """Attach a named section to snapshots and resets."""
    _STATE_SECTIONS[name] = {"export": export, "reset": reset}


def _peak_rss_gauge(telemetry: "Telemetry") -> None:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is bytes on macOS, kilobytes everywhere else.
    if sys.platform != "darwin":
        peak *= 1024
    telemetry.gauge("process.peak_rss_bytes").set(peak)


register_gauge_provider(_peak_rss_gauge)


class Counter:
    """A named monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named last-write-wins number."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class SpanStats:
    """Aggregate for one span path: count, total, min/max, distribution.

    Backed by one :class:`~repro.obs.metrics.Histogram`, so every span
    path carries latency percentiles for free and two snapshots' stats
    for the same path merge exactly (bucket-wise).  ``count`` /
    ``seconds`` / ``min`` / ``max`` read through to the histogram.
    """

    __slots__ = ("path", "hist")

    def __init__(self, path: str):
        self.path = path
        self.hist = Histogram(path)

    @property
    def count(self) -> int:
        return self.hist.count

    @property
    def seconds(self) -> float:
        return self.hist.sum

    @property
    def min(self) -> float:
        return self.hist.min if self.hist.count else 0.0

    @property
    def max(self) -> float:
        return self.hist.max

    def record(self, seconds: float) -> None:
        self.hist.record(seconds)

    def zero(self) -> None:
        self.hist.zero()

    def to_dict(self) -> dict:
        """The snapshot entry: additive superset of the v1 count/seconds.

        ``repro.obs/v1`` consumers keep reading ``count``/``seconds``;
        ``min``/``max``, percentiles, and the sparse ``buckets`` map
        (which keeps snapshots mergeable by ``repro stats``) are new.
        """
        state = self.hist.to_dict()
        state["seconds"] = state.pop("sum")
        return state

    def __repr__(self) -> str:
        return f"SpanStats({self.path}: n={self.count}, {self.seconds:.4f}s)"


class Telemetry:
    """One registry of counters, gauges and span aggregates plus a sink."""

    def __init__(self, sink: EventSink = NULL_SINK):
        self._sink = sink
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._spans: Dict[str, SpanStats] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._stack: List[str] = []
        self._epoch = time.perf_counter()

    # -- sink management ------------------------------------------------

    @property
    def sink(self) -> EventSink:
        return self._sink

    def install_sink(self, sink: EventSink) -> EventSink:
        """Replace the sink; returns the previous one."""
        previous = self._sink
        self._sink = sink
        return previous

    @property
    def emitting(self) -> bool:
        """True when a non-null sink is listening."""
        return self._sink is not NULL_SINK

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    # -- instruments ----------------------------------------------------

    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def gauge(self, name: str) -> Gauge:
        found = self._gauges.get(name)
        if found is None:
            found = self._gauges[name] = Gauge(name)
        return found

    def histogram(self, name: str) -> Histogram:
        """A named standalone latency histogram (p50/p95/p99 in snapshots).

        Distinct from the per-span histograms: use this for latencies
        that are not spans -- cache hit/miss lookups, for instance --
        recorded with ``histogram(name).record(seconds)``.
        """
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(name)
        return found

    @contextmanager
    def span(self, name: str) -> Iterator[SpanStats]:
        """A wall-timed section; nests into a ``/``-joined path.

        Exception-safe: the span is closed (and its time recorded) even
        when the body raises.
        """
        stack = self._stack
        path = stack[-1] + "/" + name if stack else name
        stats = self._spans.get(path)
        if stats is None:
            stats = self._spans[path] = SpanStats(path)
        stack.append(path)
        if self._sink is not NULL_SINK:
            self._sink.emit(
                {
                    "type": "span_start",
                    "name": path,
                    "ts": self._now(),
                    "depth": len(stack),
                }
            )
        started = time.perf_counter()
        try:
            yield stats
        finally:
            elapsed = time.perf_counter() - started
            stats.record(elapsed)
            stack.pop()
            if self._sink is not NULL_SINK:
                self._sink.emit(
                    {
                        "type": "span_end",
                        "name": path,
                        "ts": self._now(),
                        "seconds": elapsed,
                        "depth": len(stack) + 1,
                    }
                )

    def span_stats(self, name: str) -> SpanStats:
        """An aggregate-only span handle nested under the current span.

        For hot loops where the ~µs cost of the :meth:`span` context
        manager matters: fetch the handle once, then call
        ``stats.record(elapsed)`` with manually measured deltas.  No
        events are emitted; the aggregate appears in :meth:`snapshot`
        like any other span.
        """
        stack = self._stack
        path = stack[-1] + "/" + name if stack else name
        stats = self._spans.get(path)
        if stats is None:
            stats = self._spans[path] = SpanStats(path)
        return stats

    def event(self, name: str, **fields) -> None:
        """Emit a one-off structured event (no-op under the null sink)."""
        if self._sink is not NULL_SINK:
            payload = {"type": "event", "name": name, "ts": self._now()}
            payload.update(fields)
            self._sink.emit(payload)

    # -- export ---------------------------------------------------------

    def snapshot(self) -> dict:
        """The aggregate state as a plain dict (stable, additive schema).

        ``spans`` entries keep the v1 ``count``/``seconds`` keys and
        additionally carry ``min``/``max``, ``p50``/``p95``/``p99``,
        and the sparse ``buckets`` map; ``histograms`` is a new section
        for the standalone latency histograms.  Gauge providers (peak
        RSS, plan-cache size) run first so derived gauges are fresh.
        """
        for provider in _GAUGE_PROVIDERS:
            try:
                provider(self)
            except Exception:
                pass
        state = {
            "schema": SCHEMA,
            "counters": {
                name: item.value for name, item in sorted(self._counters.items())
            },
            "gauges": {
                name: item.value for name, item in sorted(self._gauges.items())
            },
            "spans": {
                path: item.to_dict()
                for path, item in sorted(self._spans.items())
            },
            "histograms": {
                name: item.to_dict()
                for name, item in sorted(self._histograms.items())
            },
        }
        # Auxiliary sections are additive: absent when empty, so v1
        # consumers that iterate the four base sections are unaffected.
        for name, section in sorted(_STATE_SECTIONS.items()):
            try:
                payload = section["export"]()
            except Exception:
                continue
            if payload:
                state[name] = payload
        return state

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def emit_snapshot(self) -> None:
        """Push the aggregate state through the sink as one event."""
        if self._sink is not NULL_SINK:
            self._sink.emit(
                {"type": "snapshot", "ts": self._now(), "data": self.snapshot()}
            )

    def reset(self) -> None:
        """Zero all aggregates (the sink stays installed).

        Counter/gauge/span objects are zeroed *in place* rather than
        discarded, so handles fetched before a reset keep working --
        instrumented modules may cache them for speed.
        """
        for item in self._counters.values():
            item.value = 0
        for item in self._gauges.values():
            item.value = 0
        for item in self._spans.values():
            item.zero()
        for item in self._histograms.values():
            item.zero()
        # Resetting the *default* registry also clears the registered
        # auxiliary sections (they are process-wide, like the registry
        # itself).
        if self is DEFAULT:
            for section in _STATE_SECTIONS.values():
                try:
                    section["reset"]()
                except Exception:
                    pass
        self._stack.clear()
        self._epoch = time.perf_counter()


#: The process-wide default registry used by the module-level helpers in
#: :mod:`repro.obs`.  Library code always instruments through it.
DEFAULT = Telemetry()

"""Event sinks for the telemetry substrate.

A sink receives *events* -- plain dicts with a ``"type"`` key (see
``docs/observability.md`` for the schema) -- as they happen.  Four sinks
cover the library's needs:

* :class:`NullSink` -- the default; discards everything.  The hot paths
  are written so that running under the null sink costs (nearly)
  nothing beyond in-memory counter updates.
* :class:`RecordingSink` -- keeps events in a list; used by tests and
  interactive exploration.
* :class:`JsonLinesSink` -- writes one JSON object per line to a file;
  backs the CLI's ``--trace-json`` flag.
* :class:`LoggingSink` -- routes events to a stdlib :mod:`logging`
  logger; installed automatically when ``REPRO_LOG=debug|info`` is set.
* :class:`TraceViewerSink` -- converts the span/event stream into the
  Chrome trace-event format (loadable in Perfetto / ``chrome://tracing``);
  backs the CLI's ``--trace-viewer`` flag.
"""

from __future__ import annotations

import json
import logging
from typing import IO, List, Optional, Union


class EventSink:
    """Protocol for event consumers.  Subclass and override :meth:`emit`."""

    def emit(self, event: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; emitting afterwards is an error."""


class NullSink(EventSink):
    """Discards every event.  The default sink."""

    def emit(self, event: dict) -> None:
        pass


#: Shared null sink instance; identity-compared by the telemetry core so
#: event construction can be skipped entirely when nobody is listening.
NULL_SINK = NullSink()


class RecordingSink(EventSink):
    """Keeps events in memory (``sink.events``)."""

    def __init__(self) -> None:
        self.events: List[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def of_type(self, kind: str) -> List[dict]:
        """The recorded events of one ``"type"`` (helper for tests)."""
        return [event for event in self.events if event.get("type") == kind]


class JsonLinesSink(EventSink):
    """Writes each event as one JSON line (the ``--trace-json`` format)."""

    def __init__(self, destination: Union[str, IO[str]]):
        if isinstance(destination, str):
            self._handle: IO[str] = open(destination, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = destination
            self._owns_handle = False

    def emit(self, event: dict) -> None:
        self._handle.write(json.dumps(event, sort_keys=True, default=str))
        self._handle.write("\n")

    def close(self) -> None:
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()


class LoggingSink(EventSink):
    """Routes events to a stdlib logger (one record per event).

    The event dict is rendered as compact JSON in the message so log
    aggregators can parse it back out.
    """

    def __init__(
        self,
        logger: Optional[logging.Logger] = None,
        level: int = logging.DEBUG,
    ):
        self.logger = logger or logging.getLogger("repro.obs")
        self.level = level

    def emit(self, event: dict) -> None:
        self.logger.log(
            self.level,
            "%s %s",
            event.get("type", "event"),
            json.dumps(event, sort_keys=True, default=str),
        )


class TraceViewerSink(EventSink):
    """Converts the event stream into Chrome trace-event JSON.

    The output (written on :meth:`close`) is a single JSON object
    ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` that loads
    directly in Perfetto (https://ui.perfetto.dev) and
    ``chrome://tracing``:

    * ``span_start`` / ``span_end`` become ``"B"`` / ``"E"`` duration
      events, so nested chase phases render as a flame graph;
    * one-off events become ``"i"`` instant events with their extra
      fields attached as ``args``;
    * the final telemetry snapshot becomes an instant event carrying the
      whole aggregate dict, so counters and gauges travel with the
      timeline;
    * every event lands on one track, labeled "main" via
      ``thread_name`` metadata.

    Events buffer in memory and the file is written *complete* in one
    shot on close -- a failing run closed via try/finally still produces
    a valid, parseable trace (unlike an incrementally written JSON array,
    which would be truncated mid-structure).
    """

    def __init__(self, destination: Union[str, IO[str]], *, pid: int = 1):
        if isinstance(destination, str):
            self._handle: IO[str] = open(destination, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = destination
            self._owns_handle = False
        self._pid = pid
        self._events: List[dict] = []
        self._closed = False

    #: The ``tid`` of the one track every event lands on.
    MAIN_LANE = 1

    @staticmethod
    def _micros(seconds: float) -> float:
        return seconds * 1_000_000.0

    def emit(self, event: dict) -> None:
        kind = event.get("type")
        ts = self._micros(float(event.get("ts", 0.0)))
        base = {"pid": self._pid, "tid": self.MAIN_LANE, "ts": ts}
        if kind == "span_start":
            # Chrome names carry the leaf only; the B/E nesting restores
            # the hierarchy the /-joined path encodes.
            name = event.get("name", "")
            self._events.append(
                {**base, "ph": "B", "name": name.rsplit("/", 1)[-1], "cat": "span"}
            )
        elif kind == "span_end":
            name = event.get("name", "")
            self._events.append(
                {**base, "ph": "E", "name": name.rsplit("/", 1)[-1], "cat": "span"}
            )
        elif kind == "snapshot":
            self._events.append(
                {
                    **base,
                    "ph": "i",
                    "s": "g",
                    "name": "telemetry.snapshot",
                    "cat": "snapshot",
                    "args": event.get("data", {}),
                }
            )
        else:
            args = {
                key: value
                for key, value in event.items()
                if key not in ("type", "name", "ts")
            }
            self._events.append(
                {
                    **base,
                    "ph": "i",
                    "s": "t",
                    "name": event.get("name", "event"),
                    "cat": "event",
                    "args": args,
                }
            )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Label the track so Perfetto shows "main" instead of a bare tid.
        metadata = []
        if self._events:
            metadata.append(
                {
                    "ph": "M",
                    "pid": self._pid,
                    "tid": self.MAIN_LANE,
                    "ts": 0,
                    "name": "thread_name",
                    "args": {"name": "main"},
                }
            )
        json.dump(
            {"traceEvents": metadata + self._events, "displayTimeUnit": "ms"},
            self._handle,
            sort_keys=True,
            default=str,
        )
        self._handle.write("\n")
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()


class TeeSink(EventSink):
    """Fans one event stream out to several sinks."""

    def __init__(self, *sinks: EventSink):
        self.sinks = [sink for sink in sinks if not isinstance(sink, NullSink)]

    def emit(self, event: dict) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

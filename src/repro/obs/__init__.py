"""``repro.obs`` -- zero-dependency telemetry for the whole library.

Usage from instrumented code (all module-level helpers act on the
process-wide default :class:`~repro.obs.telemetry.Telemetry` registry)::

    from ..obs import counter, gauge, span

    with span("chase.standard"):
        counter("chase.tgd_firings").inc()
        gauge("instance.nulls").set(7)

Usage from consumers::

    from repro import obs

    obs.reset()
    ... run an exchange ...
    print(obs.to_json(indent=2))          # stable schema, see docs
    table = obs.render_stats(obs.snapshot())  # human-readable table

Sinks (``--trace-json``, ``REPRO_LOG``, tests) are described in
``docs/observability.md`` together with the metric name registry and the
JSON schemas.
"""

from __future__ import annotations

import logging
import os
from typing import Optional

from . import attribution
from .metrics import Histogram, MetricsLog
from .provenance import (
    Justification,
    ProvenanceLedger,
    active_ledger,
    recording,
)
from .stats import render_stats
from .sinks import (
    NULL_SINK,
    EventSink,
    JsonLinesSink,
    LoggingSink,
    NullSink,
    RecordingSink,
    TeeSink,
    TraceViewerSink,
)
from .telemetry import (
    DEFAULT,
    SCHEMA,
    Counter,
    Gauge,
    SpanStats,
    Telemetry,
    register_gauge_provider,
    register_state_section,
)

__all__ = [
    "attribution",
    "Counter",
    "EventSink",
    "Gauge",
    "Histogram",
    "JsonLinesSink",
    "MetricsLog",
    "Justification",
    "LoggingSink",
    "NULL_SINK",
    "NullSink",
    "ProvenanceLedger",
    "RecordingSink",
    "SCHEMA",
    "SpanStats",
    "TeeSink",
    "Telemetry",
    "TraceViewerSink",
    "active_ledger",
    "configure_from_env",
    "counter",
    "event",
    "gauge",
    "get_telemetry",
    "histogram",
    "install_sink",
    "register_gauge_provider",
    "register_state_section",
    "recording",
    "render_stats",
    "reset",
    "snapshot",
    "span",
    "span_stats",
    "to_json",
]


def get_telemetry() -> Telemetry:
    """The process-wide default registry."""
    return DEFAULT


def counter(name: str) -> Counter:
    return DEFAULT.counter(name)


def gauge(name: str) -> Gauge:
    return DEFAULT.gauge(name)


def span(name: str):
    return DEFAULT.span(name)


def span_stats(name: str) -> SpanStats:
    return DEFAULT.span_stats(name)


def histogram(name: str) -> Histogram:
    return DEFAULT.histogram(name)


def event(name: str, **fields) -> None:
    DEFAULT.event(name, **fields)


def snapshot() -> dict:
    return DEFAULT.snapshot()


def to_json(indent: Optional[int] = None) -> str:
    return DEFAULT.to_json(indent=indent)


def reset() -> None:
    DEFAULT.reset()


def install_sink(sink: EventSink) -> EventSink:
    return DEFAULT.install_sink(sink)


_ENV_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO}


def configure_from_env(environ=os.environ) -> Optional[LoggingSink]:
    """Honor ``REPRO_LOG=debug|info``: route events to stdlib logging.

    Installs a :class:`LoggingSink` on the default registry (tee'd with
    any sink already installed) and makes sure the ``repro.obs`` logger
    has a handler and an effective level, so library users get telemetry
    without touching the sink API.  Returns the sink, or None when the
    variable is unset or names an unknown level.
    """
    level_name = environ.get("REPRO_LOG", "").strip().lower()
    level = _ENV_LEVELS.get(level_name)
    if level is None:
        return None
    logger = logging.getLogger("repro.obs")
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(message)s")
        )
        logger.addHandler(handler)
    logger.setLevel(level)
    sink = LoggingSink(logger, level)
    current = DEFAULT.sink
    if current is NULL_SINK:
        DEFAULT.install_sink(sink)
    else:
        DEFAULT.install_sink(TeeSink(current, sink))
    return sink


configure_from_env()

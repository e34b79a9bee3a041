"""In-memory spans for the traced run.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 at the root) and ``op`` the id of the op it
belongs to.  Spans are appended to a list while the run goes and turned
into per-op self-times and Chrome trace events only after timing ends,
so recording costs two ``perf_counter`` calls and one list append.

Spans are recorded only here, in the benchmark, around calls into the
library's public API; the library's own ``repro.obs`` spans are not read.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List

#: Name of the span that encloses one traced op; its self-time is the
#: benchmark's own glue between the layer calls.
OP_SPAN = "bench.op"


class Tracer:
    """Records nested spans; ``op`` tags every span opened while set."""

    def __init__(self):
        self.spans: List[list] = []
        self.op = -1
        self._open: List[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        tracer = self._tracer
        parent = tracer._open[-1] if tracer._open else -1
        self._index = len(tracer.spans)
        tracer.spans.append([self._name, perf_counter(), 0.0, parent, tracer.op])
        tracer._open.append(self._index)

    def __exit__(self, *exc_info) -> bool:
        tracer = self._tracer
        tracer.spans[self._index][2] = perf_counter()
        tracer._open.pop()
        return False


def self_times(spans: List[list], first: int = 0) -> Dict[str, float]:
    """Seconds per span name over ``spans[first:]``, children excluded.

    A span's self-time is its duration minus the durations of its direct
    children; spans of one name are summed.
    """
    own = {}
    for index in range(first, len(spans)):
        _, start, end, parent, _ = spans[index]
        own[index] = end - start
        if parent >= first:
            own[parent] -= end - start
    totals: Dict[str, float] = {}
    for index, seconds in own.items():
        name = spans[index][0]
        totals[name] = totals.get(name, 0.0) + seconds
    return totals


def chrome_events(spans: List[list], lane: int, label: str) -> List[dict]:
    """Chrome trace-event ("X" complete events) for one process lane."""
    if not spans:
        return []
    origin = min(span[1] for span in spans)
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": lane,
            "tid": 0,
            "args": {"name": label},
        }
    ]
    for name, start, end, parent, op in spans:
        events.append(
            {
                "name": name,
                "ph": "X",
                "pid": lane,
                "tid": 0,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {
                    "op": op,
                    "parent": spans[parent][0] if parent >= 0 else None,
                },
            }
        )
    return events

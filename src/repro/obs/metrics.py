"""Mergeable latency metrics: log-bucket histograms and the metrics log.

:class:`Histogram` is the distribution-aware counterpart of
:class:`~repro.obs.telemetry.SpanStats`' totals: fixed log-scale
buckets (so two histograms recorded in different runs merge exactly,
bucket by bucket, as ``repro stats`` does over a metrics log), plus
count/sum/min/max and interpolated percentiles.

:class:`MetricsLog` is the structured JSONL metrics log behind the
CLI's ``--metrics-log PATH`` / ``REPRO_METRICS``: one self-describing
``repro.obs/log/v1`` record per line, each written with a single
``write()`` call so concurrent writers never interleave partial lines.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

#: Schema tag carried by every metrics-log record.
LOG_SCHEMA = "repro.obs/log/v1"

#: Fixed bucket upper bounds in seconds: five buckets per decade from
#: 100ns to 100s (each bucket spans a factor of 10^0.2 ~ 1.58x).  Fixed
#: boundaries are what make histograms mergeable across processes --
#: every recorder bins identically, so a merge is element-wise addition.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    10.0 ** (exponent / 5.0) for exponent in range(-35, 11)
)

#: Bucket count: one per bound plus the overflow bucket (> 100s).
BUCKET_COUNT = len(BUCKET_BOUNDS) + 1


class Histogram:
    """A fixed-log-bucket latency histogram with exact merges.

    ``record()`` is a bisect over :data:`BUCKET_BOUNDS` plus four
    scalar updates -- cheap enough for every span close.  ``merge()``
    is associative and commutative on counts/min/max (bucket counts add
    element-wise), which the property tests assert via hypothesis.
    """

    __slots__ = ("name", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str = ""):
        self.name = name
        self.counts: List[int] = [0] * BUCKET_COUNT
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    # -- recording ------------------------------------------------------

    def record(self, value: float) -> None:
        self.counts[bisect_right(BUCKET_BOUNDS, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def zero(self) -> None:
        """Reset in place (handles stay valid, mirroring Counter/Gauge)."""
        for index in range(BUCKET_COUNT):
            self.counts[index] = 0
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    # -- merging --------------------------------------------------------

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram in place; returns self."""
        for index, bucket in enumerate(other.counts):
            if bucket:
                self.counts[index] += bucket
        self.count += other.count
        self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    def merge_dict(self, state: dict) -> "Histogram":
        """Fold a serialized histogram (``to_dict`` shape) into this one.

        An empty state (count 0) contributes nothing: its serialized
        ``min`` is the 0.0 placeholder, not an observation, and folding
        it in would clobber a real minimum.
        """
        if not int(state.get("count", 0)):
            return self
        for index, bucket in state.get("buckets", {}).items():
            self.counts[int(index)] += int(bucket)
        self.count += int(state.get("count", 0))
        self.sum += float(state.get("sum", 0.0))
        low = state.get("min")
        if low is not None and float(low) < self.min:
            self.min = float(low)
        high = state.get("max")
        if high is not None and float(high) > self.max:
            self.max = float(high)
        return self

    # -- percentiles ----------------------------------------------------

    def quantile(self, q: float) -> float:
        """The q-quantile (0 <= q <= 1), linearly interpolated in-bucket.

        Clamped to the exact observed ``[min, max]`` so a single-sample
        histogram reports that sample for every percentile.
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket in enumerate(self.counts):
            if bucket == 0:
                continue
            if cumulative + bucket >= rank:
                low = BUCKET_BOUNDS[index - 1] if index > 0 else 0.0
                high = (
                    BUCKET_BOUNDS[index]
                    if index < len(BUCKET_BOUNDS)
                    else max(self.max, low)
                )
                fraction = (rank - cumulative) / bucket
                value = low + (high - low) * fraction
                return min(max(value, self.min), self.max)
            cumulative += bucket
        return self.max

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON state: summary scalars, percentiles, sparse buckets.

        The sparse ``buckets`` map (bucket index -> count, JSON keys are
        strings) is what keeps serialized histograms mergeable --
        ``repro stats`` folds multi-run metrics logs back together with
        :meth:`merge_dict`.
        """
        state = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": {
                str(index): bucket
                for index, bucket in enumerate(self.counts)
                if bucket
            },
        }
        return state

    @classmethod
    def from_dict(cls, state: dict, name: str = "") -> "Histogram":
        built = cls(name)
        built.merge_dict(state)
        return built

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}: n={self.count}, "
            f"p50={self.p50:.6f}, p95={self.p95:.6f})"
        )


def merge_histogram_dicts(states: Iterable[dict], name: str = "") -> Histogram:
    """Fold any number of serialized histograms into one."""
    merged = Histogram(name)
    for state in states:
        merged.merge_dict(state)
    return merged


class MetricsLog:
    """Append-only JSONL metrics log (``repro.obs/log/v1``).

    Each record is one JSON object on one line, written with a single
    ``write()`` on a file opened in append mode -- on POSIX an
    O_APPEND write never interleaves with another writer's, so several
    processes can share one log.  The CLI appends one ``run`` record
    per invocation from its ``finally`` block, so failing runs are
    logged too (with their nonzero status).
    """

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "a", encoding="utf-8")
        self._closed = False

    def write_record(self, record: dict) -> None:
        payload = dict(record)
        payload.setdefault("schema", LOG_SCHEMA)
        self._handle.write(json.dumps(payload, sort_keys=True, default=str) + "\n")
        self._handle.flush()

    def log_run(
        self,
        *,
        command: str,
        status: int,
        seconds: float,
        snapshot: dict,
        run_id: Optional[str] = None,
        argv: Optional[List[str]] = None,
    ) -> None:
        """Append one ``run`` record: invocation metadata + full snapshot."""
        record = {
            "kind": "run",
            "ts": time.time(),
            "command": command,
            "status": status,
            "seconds": seconds,
            "snapshot": snapshot,
        }
        if run_id is not None:
            record["run_id"] = run_id
        if argv is not None:
            record["argv"] = list(argv)
        self.write_record(record)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "MetricsLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""Plan-level EXPLAIN ANALYZE state: attribution tables + heartbeat.

Two process-wide tables, both opt-in (``enabled()`` is False by
default and every producer guards on it, so the default configuration
pays nothing):

* **plan stats** -- one record per compiled match plan, keyed by the
  plan cache's content digest (:attr:`repro.logic.plans.CompiledPattern
  .identity`).  Each record carries per-step counters -- probes
  attempted, candidates scanned, bindings emitted, self-seconds -- next
  to the step's *static* metadata (relation, number of fail-first
  checks), so estimated vs. actual row counts can be compared after the
  fact (:func:`step_estimate`, :func:`step_misestimate`).
* **dependency table** -- per-dependency chase attribution: matched
  triggers, firings, egd merges, nulls created and seconds spent, with
  a bounded per-round breakdown (:func:`record_dependency`).

Both are registered as one auxiliary state section
(``attribution``) on :mod:`repro.obs.telemetry`, so ``repro.obs/v1``
snapshots gain the section additively and ``obs.reset()`` clears it.

The **heartbeat** is independent of ``enabled()``: when configured
(``--progress`` / ``REPRO_PROGRESS``) the chase engines emit one JSON
line per round -- round number, instance size, null-creation rate, and
a divergence flag (sustained superlinear null growth, after Calautti
et al.'s termination heuristics).  Disabled, the engines' only cost is
one ``is None`` check per round boundary.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from .telemetry import DEFAULT, register_gauge_provider, register_state_section

#: Schema tag of the exported attribution section (also the top-level
#: schema of ``repro explain-plan --json`` documents).
ATTRIBUTION_SCHEMA = "repro.obs/attribution/v1"

#: Static fail-first selectivity: each check on a candidate tuple is
#: assumed to keep this fraction.  The same constant the plan compiler's
#: join-order heuristic embodies (more checks == tried earlier).
SELECTIVITY_FACTOR = 0.1

#: A step is flagged as misestimated when estimate and actual disagree
#: by at least this ratio ...
MISESTIMATE_RATIO = 8.0
#: ... and the step scanned at least this many candidates (tiny samples
#: cannot witness a bad estimate).
MISESTIMATE_FLOOR = 64

#: Per-dependency round breakdowns keep at most this many rounds; later
#: rounds fold into the ``"overflow"`` bucket so records stay bounded.
MAX_ROUNDS = 64

_ENABLED = False

_PLANS: Dict[str, dict] = {}
_DEPS: Dict[str, dict] = {}


def enabled() -> bool:
    """True when attributed execution is on (default: off)."""
    return _ENABLED


def enable(on: bool = True) -> None:
    """Switch attributed execution on or off process-wide."""
    global _ENABLED
    _ENABLED = bool(on)


@contextmanager
def attributing():
    """Enable attributed execution for the ``with`` body (reentrant)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = True
    try:
        yield
    finally:
        _ENABLED = previous


# -- plan stats ---------------------------------------------------------


def plan_record(identity: str, label: str, steps: List[dict]) -> dict:
    """The mutable stats record for one compiled plan (created once).

    ``steps`` is the static per-step metadata -- one dict per plan step
    with at least ``relation`` (name or None for ground fast-path
    steps), ``checks`` (number of fail-first checks), and ``probe`` (a
    short probe description).  The returned record's ``counts`` entry
    holds one ``[probes, candidates, emitted, seconds]`` list per step;
    the plan executor mutates those lists in place when attribution is on.
    """
    found = _PLANS.get(identity)
    if found is None:
        found = _PLANS[identity] = {
            "label": label,
            "uses": 0,
            "steps": [dict(step) for step in steps],
            "counts": [[0, 0, 0, 0.0] for _ in steps],
        }
    return found


def plans() -> Dict[str, dict]:
    """The plan-stats table (identity digest -> record)."""
    return _PLANS


def step_estimate(step: dict, candidates: int) -> float:
    """Estimated bindings out of a step that scanned ``candidates``."""
    return candidates * (SELECTIVITY_FACTOR ** step.get("checks", 0))


def step_misestimate(step: dict, counts: List) -> Optional[float]:
    """The estimate/actual misestimate ratio, or None when unflagged.

    The ratio is symmetric (``>= 1``): how far off the static fail-first
    estimate was, in whichever direction.  Only steps that scanned at
    least :data:`MISESTIMATE_FLOOR` candidates and are off by at least
    :data:`MISESTIMATE_RATIO` are flagged.
    """
    probes, candidates, emitted = counts[0], counts[1], counts[2]
    del probes
    if candidates < MISESTIMATE_FLOOR:
        return None
    estimate = max(step_estimate(step, candidates), 1.0)
    actual = max(float(emitted), 1.0)
    ratio = estimate / actual if estimate >= actual else actual / estimate
    return ratio if ratio >= MISESTIMATE_RATIO else None


# -- dependency attribution ---------------------------------------------


def dep_label(dependency) -> str:
    """The attribution key for a dependency: its name, else its repr.

    ``DataExchangeSetting.from_strings`` names dependencies ``st1``,
    ``t2``, ...; anonymous dependencies fall back to their (content-
    stable) repr so tables from separate runs key identically.
    """
    name = getattr(dependency, "name", None)
    return name if name else repr(dependency)


def dep_record(name: str) -> dict:
    found = _DEPS.get(name)
    if found is None:
        found = _DEPS[name] = {
            "triggers": 0,
            "firings": 0,
            "merges": 0,
            "nulls": 0,
            "seconds": 0.0,
            "rounds": {},
        }
    return found


def record_dependency(
    name: str,
    *,
    round_index: Optional[int] = None,
    triggers: int = 0,
    firings: int = 0,
    merges: int = 0,
    nulls: int = 0,
    seconds: float = 0.0,
) -> None:
    """Fold one dependency observation into the attribution table.

    Callers (the chase engines) guard on :func:`enabled` so the default
    path never reaches here.  ``round_index`` adds a per-round
    breakdown, capped at :data:`MAX_ROUNDS` rounds per dependency.
    """
    record = dep_record(name)
    record["triggers"] += triggers
    record["firings"] += firings
    record["merges"] += merges
    record["nulls"] += nulls
    record["seconds"] += seconds
    if round_index is not None:
        rounds = record["rounds"]
        key = str(round_index) if round_index < MAX_ROUNDS else "overflow"
        bucket = rounds.get(key)
        if bucket is None:
            bucket = rounds[key] = {"triggers": 0, "firings": 0, "nulls": 0}
        bucket["triggers"] += triggers
        bucket["firings"] += firings
        bucket["nulls"] += nulls
    DEFAULT.counter("chase.dep_attribution").inc()


def dependencies() -> Dict[str, dict]:
    """The per-dependency attribution table (dependency name -> record)."""
    return _DEPS


# -- export / merge / reset (state-section protocol) --------------------


def export() -> Optional[dict]:
    """The attribution tables as one picklable, mergeable payload."""
    if not (_PLANS or _DEPS):
        return None
    return {
        "schema": ATTRIBUTION_SCHEMA,
        "plans": {
            identity: {
                "label": record["label"],
                "uses": record["uses"],
                "steps": [dict(step) for step in record["steps"]],
                "counts": [list(counts) for counts in record["counts"]],
            }
            for identity, record in _PLANS.items()
        },
        "dependencies": {
            name: {
                "triggers": record["triggers"],
                "firings": record["firings"],
                "merges": record["merges"],
                "nulls": record["nulls"],
                "seconds": record["seconds"],
                "rounds": {
                    key: dict(bucket)
                    for key, bucket in record["rounds"].items()
                },
            }
            for name, record in _DEPS.items()
        },
    }


def reset() -> None:
    """Clear all attribution tables (the enabled flag is untouched)."""
    _PLANS.clear()
    _DEPS.clear()


register_state_section("attribution", export=export, reset=reset)


def _plan_gauges(telemetry) -> None:
    """Snapshot-time gauges over the plan table."""
    if not _PLANS:
        return
    profiled = 0
    misestimates = 0
    for record in _PLANS.values():
        for step, counts in zip(record["steps"], record["counts"]):
            if counts[0]:
                profiled += 1
            if step_misestimate(step, counts) is not None:
                misestimates += 1
    telemetry.gauge("plan.steps_profiled").set(profiled)
    telemetry.gauge("plan.misestimates").set(misestimates)


register_gauge_provider(_plan_gauges)


# -- progress heartbeat -------------------------------------------------

#: A null-creation round-over-round growth ratio at or above this, for
#: :data:`DIVERGENCE_ROUNDS` consecutive rounds, flags divergence.
DIVERGENCE_GROWTH = 1.5
DIVERGENCE_ROUNDS = 3
#: Rounds creating fewer nulls than this never count toward divergence.
DIVERGENCE_FLOOR = 16


class Heartbeat:
    """Single-line JSONL progress emitter for chase round boundaries.

    One line per :meth:`beat` (rate-limited by ``interval`` seconds,
    round 0 always emitted), written with a single ``write`` call so
    concurrent processes appending to the same file interleave at line
    granularity.  Tracks per-round null-creation deltas to raise a
    ``diverging`` flag on sustained superlinear growth.
    """

    def __init__(self, stream, *, interval: float = 0.0, close: bool = False):
        self._stream = stream
        self._interval = interval
        self._close = close
        self._started = time.monotonic()
        self._last_emit = float("-inf")
        self._last_round = -1
        self._last_nulls = 0
        self._last_delta = 0
        self._growth_streak = 0

    def beat(
        self,
        *,
        engine: str,
        round_index: int,
        steps: int,
        instance_size: int,
        nulls_created: int,
    ) -> None:
        now = time.monotonic()
        if round_index <= self._last_round:
            # A new chase started in this process: restart tracking.
            self._last_nulls = 0
            self._last_delta = 0
            self._growth_streak = 0
        self._last_round = round_index
        delta = nulls_created - self._last_nulls
        if (
            delta >= DIVERGENCE_FLOOR
            and delta >= self._last_delta * DIVERGENCE_GROWTH
        ):
            self._growth_streak += 1
        else:
            self._growth_streak = 0
        self._last_nulls = nulls_created
        self._last_delta = delta
        diverging = self._growth_streak >= DIVERGENCE_ROUNDS
        if (
            now - self._last_emit < self._interval
            and round_index > 0
            and not diverging
        ):
            return
        self._last_emit = now
        elapsed = now - self._started
        line = {
            "type": "heartbeat",
            "engine": engine,
            "round": round_index,
            "steps": steps,
            "atoms": instance_size,
            "nulls": nulls_created,
            "nulls_delta": delta,
            "nulls_per_s": round(nulls_created / elapsed, 3)
            if elapsed > 0
            else 0.0,
            "elapsed_s": round(elapsed, 3),
            "pid": os.getpid(),
            "diverging": diverging,
        }
        try:
            self._stream.write(json.dumps(line, sort_keys=True) + "\n")
            self._stream.flush()
        except (OSError, ValueError):
            pass

    def close(self) -> None:
        if self._close:
            try:
                self._stream.close()
            except OSError:
                pass


_HEARTBEAT: Optional[Heartbeat] = None


def heartbeat() -> Optional[Heartbeat]:
    return _HEARTBEAT


def beat(
    *,
    engine: str,
    round_index: int,
    steps: int,
    instance_size: int,
    nulls_created: int,
) -> None:
    """Engine-side round-boundary hook; no-op when no heartbeat is set.

    The engines call this once per round; the disabled cost is this
    function call plus one global read.
    """
    hb = _HEARTBEAT
    if hb is not None:
        hb.beat(
            engine=engine,
            round_index=round_index,
            steps=steps,
            instance_size=instance_size,
            nulls_created=nulls_created,
        )


def enable_heartbeat(
    target: str = "stderr", *, interval: float = 0.0
) -> Heartbeat:
    """Install the process heartbeat: ``stderr``, ``stdout``, or a path.

    A path is opened in append mode, so successive runs add to one
    JSONL file.  Returns the installed heartbeat.
    """
    global _HEARTBEAT
    disable_heartbeat()
    if target in ("stderr", "1", ""):
        _HEARTBEAT = Heartbeat(sys.stderr, interval=interval)
    elif target in ("stdout", "-"):
        _HEARTBEAT = Heartbeat(sys.stdout, interval=interval)
    else:
        _HEARTBEAT = Heartbeat(
            open(target, "a", encoding="utf-8"), interval=interval, close=True
        )
    return _HEARTBEAT


def disable_heartbeat() -> None:
    global _HEARTBEAT
    if _HEARTBEAT is not None:
        _HEARTBEAT.close()
        _HEARTBEAT = None


def configure_from_env(environ=os.environ) -> None:
    """Honor ``REPRO_ATTRIBUTION`` and ``REPRO_PROGRESS``.

    ``REPRO_ATTRIBUTION=1`` enables attributed execution for the whole
    process, without a code change.  ``REPRO_PROGRESS`` names the
    heartbeat target (``stderr``/``stdout``/path; see
    :func:`enable_heartbeat`); ``REPRO_PROGRESS_INTERVAL`` is the
    rate-limit in seconds (default 0: every round).
    """
    if environ.get("REPRO_ATTRIBUTION", "").strip() in ("1", "on", "true"):
        enable(True)
    target = environ.get("REPRO_PROGRESS", "").strip()
    if target and target not in ("0", "off", "false"):
        try:
            interval = float(environ.get("REPRO_PROGRESS_INTERVAL", "0"))
        except ValueError:
            interval = 0.0
        enable_heartbeat(target, interval=interval)


configure_from_env()

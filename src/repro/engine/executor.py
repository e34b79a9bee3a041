"""A process-pool executor with a guaranteed serial fallback.

The expensive per-item work in this codebase -- chasing one possible
world, evaluating a query under one batch of valuations, deciding one
semantics for one query -- is embarrassingly parallel, and every input
(settings, instances, queries, valuations) is picklable.  This module
wraps :class:`concurrent.futures.ProcessPoolExecutor` with the policy
the rest of the library relies on:

* **Determinism.**  Results always come back in submission order, so a
  parallel run is byte-identical to ``workers=1`` (asserted by the
  engine test suite on all four answer semantics).
* **Graceful degradation.**  With ``workers <= 1``, or when a task
  fails an upfront pickle probe, work runs serially in-process -- same
  results, no pool.  ``REPRO_WORKERS`` sets the default width.
* **Crash isolation.**  A worker that dies mid-batch (killed, or
  ``os._exit`` in a task) breaks the whole pool.  The batch raises
  :class:`repro.core.errors.WorkerCrashed`, naming its label and task
  count, and the broken pool is shut down and dropped, so the next
  batch on the same executor starts a fresh one.  The batch is never
  re-run in the parent: a crash may be an out-of-memory kill.
* **Telemetry.**  ``engine.tasks_dispatched`` counts items handed to
  the pool, ``engine.serial_tasks`` items run in-process,
  ``engine.pickle_fallbacks`` probe failures.  Every pooled task runs
  inside :func:`_run_task`, a worker harness that resets the worker's
  registry, roots its span stack at the parent's current span path,
  runs the task, and ships the whole registry state (counters, span
  histograms, standalone histograms, and -- when the parent has a live
  sink -- the raw trace events) back alongside the result.  The parent
  folds each blob in by name via ``Telemetry.merge_state``, so
  ``snapshot()`` reflects all work regardless of ``REPRO_WORKERS`` and
  a parallel ``--trace-viewer`` renders one coherent trace with a lane
  per worker.  Task latency and pool queue wait land in the
  ``engine.executor.task_seconds`` / ``.queue_wait_seconds``
  histograms.

Worker callables must be module-level functions (fork + pickle); the
higher-level entry points (:meth:`Executor.map_worlds`,
:meth:`Executor.map_valuations`) ship their own.
"""

from __future__ import annotations

import os
import pickle
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Tuple

from ..core.errors import WorkerCrashed
from ..obs import (
    NULL_SINK,
    RecordingSink,
    attribution,
    counter,
    get_telemetry,
    histogram,
)

#: Environment variable consulted for the default pool width.
WORKERS_ENV = "REPRO_WORKERS"


def default_workers() -> int:
    """Pool width from ``REPRO_WORKERS`` (default 1 = serial)."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _run_task(payload: tuple) -> Tuple[float, object, dict]:
    """The worker harness: run one task under fresh worker telemetry.

    Returns ``(elapsed seconds, result, state)`` where ``state`` is the
    worker registry's picklable ``export_state`` blob plus the pool
    queue wait, the worker's pid (its trace lane), and -- when the
    parent asked for them -- the task's raw trace events.

    The registry is reset *in place* at task start: forked workers
    inherit the parent's aggregates, and without the reset those
    inherited values would be exported and double-counted on merge.
    Resetting in place keeps module-level prefetched Counter handles
    valid (the documented hot-path idiom).
    """
    fn, args, label, base_path, want_events, submitted_wall, attributed = (
        payload
    )
    telemetry = get_telemetry()
    telemetry.reset()
    telemetry.seed(base_path)
    # The parent's attributed-execution flag travels in the payload (not
    # via fork inheritance: the pool may predate the enable, and spawn
    # platforms re-import with a fresh default).  The reset above already
    # cleared any inherited attribution tables, so nothing double-counts.
    attribution.enable(attributed)
    queue_wait = max(0.0, time.time() - submitted_wall)
    # Never emit into an inherited parent sink (a forked JsonLinesSink
    # would interleave writes with the parent's): record locally when
    # the parent wants events, otherwise stay silent.
    sink = RecordingSink() if want_events else NULL_SINK
    previous_sink = telemetry.install_sink(sink)
    start = time.perf_counter()
    try:
        # The labeled span is opened *here*, in the worker, so its stats
        # (and, when traced, its start/end events) travel back in the
        # state blob: the parent's merged snapshot aggregates per-task
        # worker wall time under ``<parent span>/<label>``, and every
        # task is visible on its worker's trace lane even when the task
        # body has no instrumentation of its own.
        with telemetry.span(label):
            result = fn(*args)
    finally:
        elapsed = time.perf_counter() - start
        telemetry.install_sink(previous_sink)
    state = telemetry.export_state()
    state["queue_wait"] = queue_wait
    state["lane"] = os.getpid()
    if want_events:
        state["events"] = sink.events
    return elapsed, result, state


class Executor:
    """Maps functions over items, in processes when it pays off.

    ``workers=None`` reads :func:`default_workers`.  The underlying pool
    is created lazily on first parallel dispatch and reused until
    :meth:`close`; the instance is a context manager.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = default_workers() if workers is None else max(1, workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Pickle-probe verdicts per callable: repeated submissions of
        #: the same worker function skip the probe (which re-pickles the
        #: first argument tuple -- expensive for instance-sized args).
        self._probe_cache: dict = {}
        #: Propagated into every worker-side trace event this executor
        #: replays, so a multi-process trace is attributable to one run.
        self.trace_id = uuid.uuid4().hex[:16]

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "live" if self._pool is not None else "idle"
        return f"Executor(workers={self.workers}, pool={state})"

    # ------------------------------------------------------------------
    # Core mapping primitive
    # ------------------------------------------------------------------

    def map_tasks(
        self,
        fn: Callable,
        arg_tuples: Iterable[tuple],
        *,
        label: str = "engine.worker",
    ) -> List[object]:
        """``[fn(*args) for args in arg_tuples]``, possibly in processes.

        Results are returned in submission order regardless of worker
        completion order.  Falls back to serial execution when the pool
        is unavailable, the task list is trivial, or ``(fn, first_args)``
        does not pickle.
        """
        tasks = list(arg_tuples)
        if not tasks:
            return []
        if self.parallel and len(tasks) > 1 and self._picklable(fn, tasks[0]):
            return self._map_parallel(fn, tasks, label)
        counter("engine.serial_tasks").inc(len(tasks))
        return [fn(*args) for args in tasks]

    def _picklable(self, fn: Callable, first: tuple) -> bool:
        """Probe ``(fn, first)`` for picklability, memoized per callable.

        A positive verdict is cached on ``fn``: later batches skip the
        probe round-trip entirely (``engine.probe_cache_hits``), and an
        argument that turns out unpicklable anyway is still caught by
        the batch-level serial fallback in :meth:`_map_parallel`.  A
        negative verdict is cached only when ``fn`` *itself* does not
        pickle (a lambda or closure stays unpicklable forever); failures
        caused by the arguments are re-probed next time.
        """
        try:
            cached = self._probe_cache.get(fn)
        except TypeError:  # unhashable callable: probe every time
            cached = None
            fn_key = None
        else:
            fn_key = fn
        if cached is not None:
            counter("engine.probe_cache_hits").inc()
            if not cached:
                counter("engine.pickle_fallbacks").inc()
            return cached
        try:
            pickle.dumps((fn, first))
        except Exception:
            counter("engine.pickle_fallbacks").inc()
            if fn_key is not None:
                try:
                    pickle.dumps(fn)
                except Exception:
                    self._probe_cache[fn_key] = False
            return False
        if fn_key is not None:
            self._probe_cache[fn_key] = True
        return True

    def _map_parallel(
        self, fn: Callable, tasks: List[tuple], label: str
    ) -> List[object]:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        counter("engine.tasks_dispatched").inc(len(tasks))
        telemetry = get_telemetry()
        base_path = telemetry.current_path
        want_events = telemetry.emitting
        submitted_wall = time.time()
        attributed = attribution.enabled()
        payloads = [
            (
                fn,
                args,
                label,
                base_path,
                want_events,
                submitted_wall,
                attributed,
            )
            for args in tasks
        ]
        results: List[object] = []
        worker_states: List[Tuple[float, dict]] = []
        try:
            for elapsed, result, state in self._pool.map(_run_task, payloads):
                worker_states.append((elapsed, state))
                results.append(result)
        except (pickle.PicklingError, AttributeError, TypeError):
            # A later task failed to pickle after the probe passed (e.g.
            # an unpicklable closure deep inside one argument): redo the
            # whole batch serially so callers still get every result.
            counter("engine.pickle_fallbacks").inc()
            counter("engine.serial_tasks").inc(len(tasks))
            return [fn(*args) for args in tasks]
        except BrokenProcessPool as error:
            # A worker died: the pool is unusable for good.  Drop it so
            # the next batch starts a fresh one.
            pool, self._pool = self._pool, None
            pool.shutdown(wait=True, cancel_futures=True)
            raise WorkerCrashed(label, len(tasks)) from error
        # Merge only after the whole batch came back: the serial
        # fallback above re-runs everything, so folding worker blobs in
        # as they stream would double-count a half-completed batch.
        # Per-task wall time under the ``label`` span arrives via the
        # worker harness's own span (merged below), so the parent only
        # records the executor-level histograms here.
        task_hist = histogram("engine.executor.task_seconds")
        wait_hist = histogram("engine.executor.queue_wait_seconds")
        for elapsed, state in worker_states:
            task_hist.record(elapsed)
            wait_hist.record(float(state.get("queue_wait", 0.0)))
            telemetry.merge_state(state)
            events = state.get("events")
            if events:
                telemetry.replay_events(
                    events,
                    lane=int(state.get("lane", 0)),
                    epoch_wall=float(state["epoch_wall"]),
                    trace_id=self.trace_id,
                )
        return results

    # ------------------------------------------------------------------
    # Domain-level entry points
    # ------------------------------------------------------------------

    def map_worlds(
        self,
        fn: Callable,
        worlds: Iterable,
        *extra_args,
        label: str = "engine.worlds",
    ) -> List[object]:
        """Apply ``fn(world, *extra_args)`` to each possible world /
        solution in a space, preserving order."""
        return self.map_tasks(
            fn, [(world, *extra_args) for world in worlds], label=label
        )

    def map_valuations(
        self,
        fn: Callable,
        valuations: Iterable,
        *extra_args,
        chunk_size: Optional[int] = None,
        label: str = "engine.valuations",
    ) -> List[object]:
        """Apply ``fn(chunk, *extra_args)`` to chunks of a valuation
        stream; returns per-chunk results in order.

        Valuations are tiny dicts but very numerous, so they are batched
        (about four chunks per worker by default) to amortize the IPC
        cost of a process round trip.
        """
        items = list(valuations)
        if not items:
            return []
        if chunk_size is None:
            chunk_size = max(1, len(items) // (self.workers * 4) or 1)
        chunks = [
            items[start : start + chunk_size]
            for start in range(0, len(items), chunk_size)
        ]
        return self.map_tasks(
            fn, [(chunk, *extra_args) for chunk in chunks], label=label
        )

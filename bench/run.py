"""Run the benchmark and print every metric with its unit.

    python3 bench/run.py --workload paper_exchange --seed 0 --seconds 15 --trace 0
    PYTHONPATH=src python -m bench.run --seed 0 [--trace] [--out FILE]

Without ``--workload`` all five workloads run.  Each workload runs in
one child process per hash seed in ``HASH_SEEDS``, one child at a time,
so at most two processes are busy: this parent, which only waits, and
one child.  With several workloads the children are interleaved
workload by workload, so a slow spell on a shared host falls on all of
them.  Each child gets an equal share of ``--seconds`` for timed ops.

Every line but the last reads ``<workload> <metric> <value> <unit>``;
the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports its
per-layer metrics, and writes the spans as a Chrome trace to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import ROOT, SRC  # noqa: E402
from bench.spans import OP_SPAN, Tracer, chrome_events, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT = ROOT / "bench" / "out"

#: ``PYTHONHASHSEED`` of each child.  Set iteration order, and with it
#: the homomorphism search order, follows the hash seed: one instance
#: costs twice the search work under one seed as under another.  The
#: seeds are fixed, not derived from ``--seed``, so two runs on different
#: inputs still search in the same three orders.
HASH_SEEDS = (0, 1, 2)

#: Seconds a child may take beyond its share of timed ops.
CHILD_SLACK_S = 60.0

#: Times are reported at a fixed machine speed.  On a shared host the
#: same op runs up to 2x slower in bursts from a fraction of a second to
#: minutes; CPU time slows as much as wall time, so the slowdown is not
#: waiting.  A fixed pure-Python kernel slows too, and the ops of every
#: workload slow by about the kernel's factor to the power
#: ``LOAD_EXPONENT`` (0.8-0.9 over ten-run sets on a 2-core Intel Xeon
#: VM).  The kernel is timed right before and right after each op, and
#: the op's times are multiplied by ``REFERENCE_S`` over the mean of the
#: two, to that power.  ``REFERENCE_S`` is about the kernel's time on the
#: lightly loaded VM (its fastest quarter of runs took 0.46-0.53 ms), so
#: there the scaled times are close to the clock's.
REFERENCE_S = 0.0005
LOAD_EXPONENT = 0.85
_REFERENCE_ARCS = tuple(((i * 7) % 211, (i * 31 + 5) % 211) for i in range(420))

#: Peak memory is read after this many timed ops, so that it counts the
#: same work however many ops the run's seconds allow.
RSS_AFTER_OPS = 20


class _Pair:
    __slots__ = ("tail", "head")

    def __init__(self, tail: int, head: int):
        self.tail = tail
        self.head = head

    def __hash__(self) -> int:
        return hash((self.tail, self.head))

    def __eq__(self, other) -> bool:
        return self.tail == other.tail and self.head == other.head


def reference_s() -> float:
    """Seconds the reference kernel takes now: a three-round join over
    integer pairs, then a set of slotted objects -- the dict, set, tuple
    and hashing work the library's ops are made of.  Integers hash the
    same under every ``PYTHONHASHSEED``, so its work never varies.  The
    garbage collector is off while it runs: a collection would walk the
    workload's heap, and the kernel would time the heap, not the host."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        began = perf_counter()
        successors: Dict[int, List[int]] = {}
        for tail, head in _REFERENCE_ARCS:
            successors.setdefault(tail, []).append(head)
        reached = set(_REFERENCE_ARCS)
        frontier = list(reached)
        for _ in range(3):
            found = []
            for tail, middle in frontier:
                for head in successors.get(middle, ()):
                    if (tail, head) not in reached:
                        reached.add((tail, head))
                        found.append((tail, head))
            frontier = found
        reached = {_Pair(tail, head) for tail, head in reached}
        return perf_counter() - began
    finally:
        if collecting:
            gc.enable()


def _scale(opening: float, closing: float) -> float:
    """Factor from this moment's speed to the reference speed."""
    return (2 * REFERENCE_S / (opening + closing)) ** LOAD_EXPONENT


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

#: Work counted from a child's start to the end of its oracle check
#: (set-up, the warm-up op, the check).  It repeats exactly for one
#: commit, seed and hash seed, so compare.py fails when it differs.
WORK_COUNTERS = ("hom.candidates", "chase.tgd_firings")

#: Per-layer time metric -> the span it reads.
LAYER_SPANS = {
    "exchange.validate_s": "exchange.validate",
    "core.reduct_s": "core.reduct",
    "chase.run_s": "chase.run",
    "homomorphism.core_s": "homomorphism.core",
    "homomorphism.verify_s": "homomorphism.verify",
    "incremental.apply_s": "incremental.apply",
    "engine.key_s": "engine.key",
    "engine.cache_get_s": "engine.cache_get",
    "io.decode_s": "io.decode",
    "answering.ucq_s": "answering.ucq",
    "answering.certain_s": "answering.certain",
    "answering.potential_certain_s": "answering.potential_certain",
    "answering.persistent_maybe_s": "answering.persistent_maybe",
    "answering.maybe_s": "answering.maybe",
    "cwa.core_solution_s": "cwa.core_solution",
    "bench.glue_s": OP_SPAN,
}

#: Per-op count metric -> the ``repro.obs`` counter it reads.
PER_OP_COUNTS = {
    "chase.tgd_firings_per_op": "chase.tgd_firings",
    "chase.egd_merges_per_op": "chase.egd_merges",
    "chase.nulls_per_op": "chase.nulls_created",
    "logic.plan_compilations_per_op": "plan.compilations",
    "homomorphism.searches_per_op": "hom.searches",
    "homomorphism.candidates_per_op": "hom.candidates",
    "homomorphism.backtracks_per_op": "hom.backtracks",
    "incremental.retracted_per_op": "incremental.retracted",
    "incremental.delta_rounds_per_op": "incremental.delta_rounds",
    "incremental.full_fallbacks_per_op": "incremental.full_fallbacks",
    "answering.valuations_per_op": "answering.valuations_enumerated",
}

#: Ratio metric -> (numerator counters, denominator counters).
COUNT_RATIOS = {
    "logic.plan_hit_ratio": (
        ("plan.cache_hits",),
        ("plan.cache_hits", "plan.compilations"),
    ),
    "homomorphism.fold_ratio": (("core.folds",), ("core.retract_attempts",)),
    "incremental.block_reuse_ratio": (
        ("incremental.blocks_skipped", "incremental.blocks_replayed"),
        (
            "incremental.blocks_skipped",
            "incremental.blocks_replayed",
            "incremental.blocks_reminimized",
        ),
    ),
    "engine.cache_hit_ratio": (
        ("engine.cache.hits",),
        ("engine.cache.hits", "engine.cache.misses"),
    ),
    "answering.world_ratio": (
        ("answering.worlds_visited",),
        ("answering.valuations_enumerated",),
    ),
}

COUNTERS = sorted(
    {*WORK_COUNTERS, *PER_OP_COUNTS.values()}
    | {name for pair in COUNT_RATIOS.values() for side in pair for name in side}
)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10)[8]


# ----------------------------------------------------------------------
# One child: set up, check the oracle, run the closed loop
# ----------------------------------------------------------------------


def run_child(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    hash_seed: Optional[int] = None,
    *,
    max_ops: Optional[int] = None,
    started: Optional[float] = None,
) -> dict:
    """Run one workload in this process; returns the child's samples.

    ``started`` is the wall-clock time the parent spawned this process;
    set-up time runs from there to the first timed op and includes one
    warm-up op, but not the oracle check.  With ``max_ops`` the loop
    stops after that many ops instead of after ``seconds``.  In a traced
    run every second op is traced and the others run plain, so the two
    are timed under the same conditions.  Set-up, op, part and layer
    times are scaled to the reference speed (see ``REFERENCE_S``);
    ``raw_op_s`` keeps the plain op times as the clock read them.
    """
    started = time.time() if started is None else started
    from bench import workloads
    from repro import obs

    handles = [obs.counter(counter) for counter in COUNTERS]
    before = [handle.value for handle in handles]
    reference_s()  # the first call runs unspecialized bytecode
    opening = reference_s()
    workload = workloads.build(name, seed, OUT)
    try:
        workload.plain(workload.prepare(0))
        setup_s = (time.time() - started) * _scale(opening, reference_s())

        checked = perf_counter()
        correct = workload.check()
        check_s = perf_counter() - checked
        work = {
            counter: handle.value - value
            for counter, handle, value in zip(COUNTERS, handles, before)
            if counter in WORK_COUNTERS
        }

        tracer = Tracer() if trace else None
        op_s: List[float] = []
        raw_op_s: List[float] = []
        traced_op_s: List[float] = []
        parts: Dict[str, List[float]] = {}
        layers: List[Dict[str, float]] = []
        counts = dict.fromkeys(COUNTERS, 0)
        references: List[float] = []
        peak_rss_mb = None
        attempted = failed = 0
        errors: Dict[str, int] = {}
        deadline = perf_counter() + seconds
        while (attempted < max_ops) if max_ops else (perf_counter() < deadline):
            if attempted == RSS_AFTER_OPS:
                peak_rss_mb = _peak_rss_mb()
            attempted += 1
            prepared = workload.prepare(attempted)
            traced = tracer is not None and attempted % 2 == 0
            opening = reference_s()
            try:
                if traced:
                    mark = len(tracer.spans)
                    tracer.op = attempted
                    before = [handle.value for handle in handles]
                    began = perf_counter()
                    with tracer.span(OP_SPAN):
                        result = workload.traced(prepared, tracer)
                    elapsed = perf_counter() - began
                    closing = reference_s()
                    moved = [handle.value - value for handle, value in zip(handles, before)]
                    ok = workload.probe(prepared, result, tracer)
                    split = self_times(tracer.spans, mark)
                else:
                    began = perf_counter()
                    result, split = workload.plain(prepared)
                    elapsed = perf_counter() - began
                    closing = reference_s()
                    ok = True
                ok = ok and workload.verify(prepared, result)
            except Exception as error:  # any failure of an op is counted
                failed += 1
                errors[type(error).__name__] = errors.get(type(error).__name__, 0) + 1
                continue
            if not ok:
                failed += 1
                correct = False
                continue
            references += (opening, closing)
            scale = _scale(opening, closing)
            split = {key: part_s * scale for key, part_s in (split or {}).items()}
            if traced:
                traced_op_s.append(elapsed * scale)
                layers.append(split)
                for counter, delta in zip(COUNTERS, moved):
                    counts[counter] += delta
            else:
                op_s.append(elapsed * scale)
                raw_op_s.append(elapsed)
                for part, part_s in split.items():
                    parts.setdefault(part, []).append(part_s)
            paused = perf_counter()
            if not workload.after_op(attempted):
                correct = False
            deadline += perf_counter() - paused
        if not workload.finish():
            correct = False
    finally:
        workload.close()
    return {
        "workload": name,
        "hash_seed": hash_seed,
        "setup_s": setup_s,
        "check_s": check_s,
        "peak_rss_mb": peak_rss_mb or _peak_rss_mb(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "work": work,
        "slowdown": _median(references) / REFERENCE_S,
        "op_s": op_s,
        "raw_op_s": raw_op_s,
        "traced_op_s": traced_op_s,
        "parts": parts,
        "layers": layers,
        "counts": counts,
        "spans": tracer.spans if tracer is not None else [],
    }


# ----------------------------------------------------------------------
# Metrics from the children's samples
# ----------------------------------------------------------------------


def child_end_to_end(child: dict) -> Dict[str, float]:
    """The end-to-end metrics of one child."""
    op_s = child["op_s"]
    return {
        "op_p50_s": _median(op_s),
        "op_p90_s": _p90(op_s),
        "ops_per_s": len(op_s) / sum(op_s) if op_s else 0.0,
        "setup_s": child["setup_s"],
        "peak_rss_mb": child["peak_rss_mb"],
    }


def end_to_end(children: List[dict]) -> Dict[str, float]:
    """Times and rates average the children's own values: pooled, the
    samples of two hash orders whose costs differ twofold would put the
    median on the boundary between them.  Set-up and memory take the
    children's median, so one slow start does not move them."""
    rows = [child_end_to_end(child) for child in children]
    metrics = {
        name: statistics.fmean(row[name] for row in rows)
        for name in ("op_p50_s", "op_p90_s", "ops_per_s")
    }
    for name in ("setup_s", "peak_rss_mb"):
        metrics[name] = _median(row[name] for row in rows)
    return metrics


def per_layer(children: List[dict]) -> Dict[str, float]:
    """Layer self-times are the children's mean of per-op medians;
    counts and ratios pool the traced ops of all children."""

    def mean_of_medians(pick) -> float:
        return statistics.fmean(_median(pick(child)) for child in children)

    metrics = {
        metric: mean_of_medians(
            lambda child, span=span: (op.get(span, 0.0) for op in child["layers"])
        )
        for metric, span in LAYER_SPANS.items()
    }
    traced_p50 = mean_of_medians(lambda child: child["traced_op_s"])
    plain_p50 = mean_of_medians(lambda child: child["op_s"])
    metrics["homomorphism.blocks_s"] = (
        metrics["homomorphism.core_s"] - metrics["homomorphism.verify_s"]
    )
    metrics["chase.share"] = metrics["chase.run_s"] / traced_p50 if traced_p50 else 0.0
    metrics["homomorphism.share"] = (
        metrics["homomorphism.core_s"] / traced_p50 if traced_p50 else 0.0
    )
    metrics["bench.trace_overhead_ratio"] = traced_p50 / plain_p50 if plain_p50 else 0.0
    for part in ("write", "read"):
        metrics[f"{part}_p50_s"] = mean_of_medians(
            lambda child: child["parts"].get(part, ())
        )
    metrics["bench.check_s"] = _median(child["check_s"] for child in children)

    traced_ops = sum(len(child["layers"]) for child in children)
    totals = {
        counter: sum(child["counts"][counter] for child in children)
        for counter in COUNTERS
    }
    for metric, counter in PER_OP_COUNTS.items():
        metrics[metric] = totals[counter] / traced_ops if traced_ops else 0.0
    for metric, (numerator, denominator) in COUNT_RATIOS.items():
        below = sum(totals[counter] for counter in denominator)
        above = sum(totals[counter] for counter in numerator)
        metrics[metric] = above / below if below else 0.0
    return metrics


def metric_specs(trace: bool) -> List[dict]:
    return SPEC["per_layer" if trace else "end_to_end"]


def summarize(children: List[dict], trace: bool) -> dict:
    """One workload's result: its metrics in ``BENCHMARK.json`` order."""
    values = per_layer(children) if trace else end_to_end(children)
    work = {
        counter: sum(child["work"][counter] for child in children)
        for counter in WORK_COUNTERS
    }
    errors: Dict[str, int] = {}
    for child in children:
        for kind, count in child["errors"].items():
            errors[kind] = errors.get(kind, 0) + count
    return {
        "correct": all(child["correct"] for child in children),
        "attempted": sum(child["attempted"] for child in children),
        "failed": sum(child["failed"] for child in children),
        "errors": errors,
        "work": work,
        "slowdown": statistics.fmean(child["slowdown"] for child in children),
        "raw_op_p50_s": statistics.fmean(_median(child["raw_op_s"]) for child in children),
        "metrics": {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in metric_specs(trace)
        },
        "children": [
            {"hash_seed": child["hash_seed"], **child_end_to_end(child)}
            for child in children
        ],
    }


# ----------------------------------------------------------------------
# The parent: spawn the children, report
# ----------------------------------------------------------------------


class ChildFailed(Exception):
    pass


def spawn(name: str, seed: int, seconds: float, trace: bool, hash_seed: int) -> dict:
    """Run one child under ``hash_seed`` and wait for it to end."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = str(hash_seed)
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        "--workload", name,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(int(trace)),
        "--hash-seed", str(hash_seed),
        "--spawned-at", repr(time.time()),
    ]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=seconds + CHILD_SLACK_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{name} (hash seed {hash_seed}) timed out") from None
    if done.returncode != 0:
        raise ChildFailed(
            f"{name} (hash seed {hash_seed}) exited {done.returncode}:\n"
            + done.stderr[-4000:]
        )
    return json.loads(done.stdout.splitlines()[-1])


def write_trace(path: Path, children: List[dict]) -> None:
    events = []
    for lane, child in enumerate(children):
        label = f"{child['workload']} PYTHONHASHSEED={child['hash_seed']}"
        events.extend(chrome_events(child["spans"], lane, label))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")


def parse_args(argv):
    names = [workload["name"] for workload in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(SPEC["run_seconds"]),
        help="timed seconds per workload, shared by its children",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1 (or the bare flag) for the traced, per-layer run",
    )
    parser.add_argument("--out", type=Path, help="also write the results as JSON here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--hash-seed", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.names = names if args.workload == "all" else [args.workload]
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        result = run_child(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.hash_seed, started=args.spawned_at,
        )
        print(json.dumps(result))
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {SRC}", file=sys.stderr)
        return 2

    share = args.seconds / len(HASH_SEEDS)
    children: Dict[str, List[dict]] = {name: [] for name in args.names}
    try:
        for hash_seed in HASH_SEEDS:
            for name in args.names:
                children[name].append(
                    spawn(name, args.seed, share, bool(args.trace), hash_seed)
                )
    except ChildFailed as failure:
        print(f"bench: {failure}", file=sys.stderr)
        return 1

    results = {name: summarize(children[name], bool(args.trace)) for name in args.names}
    for name, result in results.items():
        for counter, count in result["work"].items():
            print(f"{name} work.{counter} {count} count")
        print(f"{name} attempted {result['attempted']} ops")
        print(f"{name} failed {result['failed']} ops {json.dumps(result['errors'])}")
        print(f"{name} machine.slowdown {result['slowdown']!r} ratio")
        print(f"{name} raw.op_p50_s {result['raw_op_p50_s']!r} s")
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
    if args.trace:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(path, [child for name in args.names for child in children[name]])
        print(f"# trace: {path.relative_to(ROOT)}")
    if args.out is not None:
        args.out.write_text(
            json.dumps(
                {"seed": args.seed, "trace": args.trace, "seconds": args.seconds, "workloads": results},
                indent=1,
            ),
            encoding="utf-8",
        )

    single = len(results) == 1
    print(
        json.dumps(
            {
                "correct": all(result["correct"] for result in results.values()),
                "attempted": sum(result["attempted"] for result in results.values()),
                "failed": sum(result["failed"] for result in results.values()),
                "metrics": {
                    (metric if single else f"{name}/{metric}"): entry
                    for name, result in results.items()
                    for metric, entry in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

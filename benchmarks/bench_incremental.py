"""Incremental delta maintenance vs full re-solve: the >= 10x gate.

The workload is a 1%-edit stream against a constant-anchored setting
(every conclusion atom carries a frontier constant, so the incremental
core's touch tests discriminate between blocks): 200 disjoint ``R``
rows chase into 3 anchored target atoms each, and every edit swaps 1%
of the rows (delete two, insert two fresh ones).  A
:class:`~repro.incremental.DeltaSession` maintains the CWA-solution
across the stream; the comparator re-solves the edited source from
scratch with the same (semi-naive) engine.

The gate: the median ``apply`` must beat the median full re-solve by
at least ``SPEEDUP_FLOOR`` (10x), with every incremental core fp/v1
fingerprint-identical to the from-scratch one.  Both are asserted in
the test, so CI runs this module in full, not ``--benchmark-only``.
"""

import random
import statistics
import time

from repro.core import Atom, Const, Instance, Schema
from repro.core.schema import RelationSymbol
from repro.engine import fingerprint_instance
from repro.exchange import solve
from repro.exchange.setting import DataExchangeSetting
from repro.incremental import DeltaSession, SourceDelta

SPEEDUP_FLOOR = 10.0

ROWS = 200
EDITS = 12
EDIT_FRACTION = 0.01

_R = RelationSymbol("R", 2)


def _setting():
    return DataExchangeSetting.from_strings(
        Schema.of(R=2),
        Schema.of(A=2, B=2, C=2),
        ["R(x,y) -> exists z . A(x,z) & B(z,y)"],
        ["B(z,y) -> exists w . C(y,w)"],
    )


def _source(rows):
    return Instance(
        Atom(_R, (Const(f"s{i}"), Const(f"t{i}"))) for i in range(rows)
    )


def _fp(instance):
    return fingerprint_instance(instance, canonical=True)


def _edit_stream(session, edits, seed=7):
    """Yield one 1%-swap :class:`SourceDelta` per step."""
    rng = random.Random(seed)
    edit_size = max(1, round(len(session.source) * EDIT_FRACTION))
    fresh = 0
    for _ in range(edits):
        atoms = sorted(session.source)
        victims = rng.sample(atoms, edit_size)
        insertions = []
        for _ in range(edit_size):
            fresh += 1
            insertions.append(
                Atom(_R, (Const(f"new{fresh}a"), Const(f"new{fresh}b")))
            )
        yield SourceDelta(insertions=insertions, deletions=victims)


class TestIncrementalSpeedup:
    def test_one_percent_edit_stream_speedup(self, report):
        setting = _setting()
        session = DeltaSession(setting, _source(ROWS))
        incremental_times = []
        full_times = []
        for delta in _edit_stream(session, EDITS):
            started = time.perf_counter()
            result = session.apply(delta)
            incremental_times.append(time.perf_counter() - started)

            started = time.perf_counter()
            batch = solve(setting, session.source, engine="seminaive")
            full_times.append(time.perf_counter() - started)

            # Fingerprint parity on every single edit is the gate's
            # precondition: a fast wrong answer is worthless.
            assert _fp(result.core_solution) == _fp(batch.core_solution)

        incremental_median = statistics.median(incremental_times)
        full_median = statistics.median(full_times)
        speedup = full_median / max(incremental_median, 1e-9)
        table = report.table(
            f"1%-edit stream, {ROWS} rows, {EDITS} edits",
            ("path", "median seconds", "speedup"),
        )
        table.row("full re-solve", f"{full_median:.4f}", "1.00x")
        table.row(
            "incremental", f"{incremental_median:.4f}", f"{speedup:.1f}x"
        )
        assert speedup >= SPEEDUP_FLOOR, (
            f"incremental apply {speedup:.2f}x < required "
            f"{SPEEDUP_FLOOR:.2f}x"
        )

    def test_bench_incremental_apply(self, benchmark):
        setting = _setting()
        session = DeltaSession(setting, _source(ROWS))
        deltas = iter(_edit_stream(session, 10_000))
        benchmark.pedantic(
            lambda: session.apply(next(deltas)), rounds=10, iterations=1
        )

    def test_bench_full_resolve(self, benchmark):
        setting = _setting()
        source = _source(ROWS)
        benchmark.pedantic(
            lambda: solve(setting, source, engine="seminaive"),
            rounds=3,
            iterations=1,
        )

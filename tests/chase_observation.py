"""Observe chase runs: everything an observer can see, as plain data.

The harness behind ``tests/test_chase_observers.py``.  For each case in
:data:`RUNS` it reports the outcome fields, the trace, the provenance
ledger (by fingerprint), the ``chase.*`` counters and gauges, the
per-dependency attribution table (without times), and the heartbeat
records (without wall-clock fields).  The ``trace`` of a run is its
ledger's tgd and egd steps, written as the chase sequence's ``fire``
and ``apply`` lines.

Trigger order follows set iteration order, which depends on the string
hash, so golden values are taken in a child process under a fixed
``PYTHONHASHSEED``.  Run ``PYTHONHASHSEED=0 PYTHONPATH=src python
tests/chase_observation.py`` to print the observations as JSON.
"""

import io
import json
import sys

from repro import obs
from repro.chase.alpha import FreshAlpha, alpha_chase
from repro.chase.oblivious import (
    fire_all_source_justifications,
    oblivious_chase,
)
from repro.chase.seminaive import seminaive_chase
from repro.chase.standard import standard_chase
from repro.dependencies import parse_dependencies
from repro.engine import fingerprint_ledger
from repro.generators.settings_library import (
    example_2_1_setting,
    example_2_1_source,
)
from repro.logic import parse_instance
from repro.obs import attribution
from repro.obs.provenance import recording

COUNTERS = ("chase.tgd_firings", "chase.egd_merges", "chase.nulls_created")
GAUGES = (
    "chase.steps_to_fixpoint",
    "chase.peak_atoms",
    "chase.instance_size",
    "instance.nulls",
)
#: Heartbeat fields that depend on the clock or the process.
UNSTABLE_BEAT_FIELDS = ("elapsed_s", "nulls_per_s", "pid")


def _example_2_1():
    setting = example_2_1_setting()
    return example_2_1_source(), list(setting.all_dependencies)


def _egd_failure():
    deps = parse_dependencies(
        [
            "E(x, y) -> exists z . F(x, z)",
            "G(x, y) -> F(x, y)",
            "F(x, y) & F(x, z) -> y = z",
        ]
    )
    return parse_instance("E('a','b'), G('a','c'), G('a','d')"), deps


def _divergence():
    deps = parse_dependencies(
        [
            "E(x, y) -> exists z . E(y, z)",
            "E(x, y) & E(x, z) -> y = z",
        ]
    )
    return parse_instance("E('a','b')"), deps


def _merge_reactivation():
    deps = parse_dependencies(
        [
            "E(x, y) -> exists z . F(x, z)",
            "G(x, y) -> F(x, y)",
            "F(x, y) & F(x, z) -> y = z",
            "F(x, y) & K(y) -> H(x)",
        ]
    )
    return parse_instance("E('a','b'), G('a','c'), K('c')"), deps


def _stale_delta():
    """Chained merges in one egd fixpoint rewrite a delta atom twice.

    ``R(a,⊥0)`` enters the semi-naive delta; the merge ``⊥0 := c`` makes
    it stale before the pass that would seed ``R(x,y) → S(y)`` from it.
    Both engines must end with ``R(a,c), S(c)`` only.
    """
    deps = parse_dependencies(
        [
            "P(x) -> exists y . R(x, y)",
            "Q(x) -> exists y . R(x, y)",
            "T(x, y) -> R(x, y)",
            "R(x, y) & R(x, z) -> y = z",
            "R(x, y) -> S(y)",
        ]
    )
    return parse_instance("P('a'), Q('a'), T('a','c')"), deps


def _continuation():
    """A solved Example 2.1 chase plus one inserted source atom.

    Returns ``(instance, dependencies, insertion)``; the semi-naive
    engine resumes from it with ``initial_delta`` the way
    ``DeltaSession`` does.
    """
    source, deps = _example_2_1()
    solved = seminaive_chase(source, deps).instance
    insertion = parse_instance("N('a','d'), M('c','d')")
    resumed = solved.copy()
    resumed.add_all(insertion)
    return resumed, deps, sorted(insertion)


def _batched(engine, build, **options):
    def prepare():
        instance, deps = build()
        return lambda: engine(instance, deps, **options)

    return prepare


def _resumed(engine):
    def prepare():
        instance, deps, insertion = _continuation()
        options = {"null_factory": instance.null_factory()}
        if engine is seminaive_chase:
            options["initial_delta"] = insertion
        return lambda: engine(instance, deps, **options)

    return prepare


def _oblivious():
    source, deps = _example_2_1()
    return lambda: oblivious_chase(source, deps)[0]


def _alpha_st_only():
    setting = example_2_1_setting()
    source = example_2_1_source()
    deps = list(setting.st_dependencies)
    return lambda: alpha_chase(
        source, deps, FreshAlpha(source.null_factory())
    )


def _fire_all():
    setting = example_2_1_setting()
    source = example_2_1_source()

    def execute():
        result, table = fire_all_source_justifications(
            source, setting.st_dependencies
        )
        return result, len(table)

    return execute


RUNS = {
    "standard/example_2_1": _batched(standard_chase, _example_2_1),
    "seminaive/example_2_1": _batched(seminaive_chase, _example_2_1),
    "standard/egd_failure": _batched(standard_chase, _egd_failure),
    "seminaive/egd_failure": _batched(seminaive_chase, _egd_failure),
    "standard/divergence": _batched(standard_chase, _divergence, max_steps=7),
    "seminaive/divergence": _batched(
        seminaive_chase, _divergence, max_steps=7
    ),
    "standard/merge_reactivation": _batched(
        standard_chase, _merge_reactivation
    ),
    "seminaive/merge_reactivation": _batched(
        seminaive_chase, _merge_reactivation
    ),
    "standard/stale_delta": _batched(standard_chase, _stale_delta),
    "seminaive/stale_delta": _batched(seminaive_chase, _stale_delta),
    "standard/continuation": _resumed(standard_chase),
    "seminaive/continuation": _resumed(seminaive_chase),
    "oblivious/example_2_1": _oblivious,
    "alpha/example_2_1_st": _alpha_st_only,
    "fire_all/example_2_1": _fire_all,
}


def _outcome_fields(result) -> dict:
    if isinstance(result, tuple):  # fire_all_source_justifications
        instance, justifications = result
        return {
            "atoms": len(instance),
            "nulls": len(instance.nulls()),
            "justifications": justifications,
        }
    return {
        "status": result.status.value,
        "steps": result.steps,
        "reason": result.reason,
        "nulls_created": result.nulls_created,
        "rounds": result.rounds,
        "atoms": len(result.instance),
        "fingerprint": result.instance.fingerprint(),
    }


def _telemetry() -> dict:
    return {
        "counters": {name: obs.counter(name).value for name in COUNTERS},
        "gauges": {name: obs.gauge(name).value for name in GAUGES},
    }


def quiet(prepare) -> dict:
    execute = prepare()
    obs.reset()
    result = execute()
    return {"outcome": _outcome_fields(result), **_telemetry()}


def _trace(result, ledger) -> list:
    """One line per tgd firing and egd merge the run recorded.

    ``fire_all_source_justifications`` returns no chase outcome and
    gets no sequence, although its firings are in the ledger.
    """
    if isinstance(result, tuple):
        return []
    lines = []
    for step in ledger.steps:
        if step.kind == "tgd":
            atoms = ", ".join(repr(item) for item in step.added)
            lines.append(f"fire {step.dependency or 'tgd'}: add {{{atoms}}}")
        elif step.kind == "egd":
            old, new = step.merged
            lines.append(f"apply {step.dependency or 'egd'}: {old} := {new}")
    return lines


def observed(prepare) -> dict:
    execute = prepare()
    obs.reset()
    stream = io.StringIO()
    attribution._HEARTBEAT = attribution.Heartbeat(stream)
    try:
        with attribution.attributing(), recording() as ledger:
            result = execute()
    finally:
        attribution._HEARTBEAT = None
    beats = [json.loads(line) for line in stream.getvalue().splitlines()]
    for beat in beats:
        for field in UNSTABLE_BEAT_FIELDS:
            del beat[field]
    dependencies = {
        name: {key: value for key, value in record.items() if key != "seconds"}
        for name, record in attribution.dependencies().items()
    }
    return {
        "outcome": _outcome_fields(result),
        **_telemetry(),
        "trace": _trace(result, ledger),
        "ledger": fingerprint_ledger(ledger),
        "ledger_steps": len(ledger),
        "attribution": dependencies,
        "heartbeat": beats,
    }


def observe_all() -> dict:
    """The observed run of every case, keyed by case name."""
    attribution.enable(False)
    attribution._HEARTBEAT = None
    return {name: observed(prepare) for name, prepare in RUNS.items()}


if __name__ == "__main__":
    json.dump(
        {"hash": sys.hash_info.algorithm, "runs": observe_all()},
        sys.stdout,
        sort_keys=True,
    )

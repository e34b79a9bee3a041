"""Smoke test of the benchmark: every workload, plain and traced.

Run with ``pytest bench/``.  The tier-1 suite collects only ``tests/``.
Each case runs three ops in this process, so the hash seed is whatever
this interpreter has; only the metric names and the oracles are checked.
"""

import math

import pytest

from bench import run, workloads


def test_spec_lists_the_workloads():
    assert [spec["name"] for spec in run.SPEC["workloads"]] == list(
        workloads.WORKLOADS
    )


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_emits_every_metric(name, trace):
    child = run.run_child(name, seed=0, seconds=0.0, trace=trace, max_ops=3)
    result = run.summarize([child], trace)
    assert result["correct"], result["errors"]
    assert (result["attempted"], result["failed"]) == (3, 0)
    declared = [spec["name"] for spec in run.metric_specs(trace)]
    computed = run.per_layer([child]) if trace else run.end_to_end([child])
    assert sorted(computed) == sorted(declared)
    assert list(result["metrics"]) == declared
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert result["work"]["hom.candidates"] + result["work"]["chase.tgd_firings"] > 0

"""Tests for :mod:`repro.obs.metrics` -- histograms and the metrics log.

The load-bearing property is *mergeability*: bucket counts over fixed
boundaries make ``merge`` associative and commutative, so snapshots
folded in any grouping (two runs, twenty, a tree of merges) produce
one identical aggregate.  Hypothesis drives that property directly.
"""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    BUCKET_BOUNDS,
    BUCKET_COUNT,
    Histogram,
    MetricsLog,
    merge_histogram_dicts,
)

values = st.floats(
    min_value=0.0, max_value=1.0e4, allow_nan=False, allow_infinity=False
)
value_lists = st.lists(values, max_size=40)


def hist_of(samples, name="h"):
    built = Histogram(name)
    for sample in samples:
        built.record(sample)
    return built


class TestHistogramBasics:
    def test_bucket_bounds_are_strictly_increasing(self):
        assert all(
            low < high for low, high in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:])
        )
        assert BUCKET_COUNT == len(BUCKET_BOUNDS) + 1

    def test_empty_histogram(self):
        empty = Histogram("e")
        assert empty.count == 0
        assert empty.sum == 0.0
        assert empty.quantile(0.5) == 0.0
        assert empty.to_dict()["min"] == 0.0

    def test_scalar_summaries(self):
        built = hist_of([0.001, 0.010, 0.100])
        assert built.count == 3
        assert built.sum == pytest.approx(0.111)
        assert built.min == pytest.approx(0.001)
        assert built.max == pytest.approx(0.100)

    def test_single_sample_percentiles_report_that_sample(self):
        built = hist_of([0.0123])
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert built.quantile(q) == pytest.approx(0.0123)

    def test_quantiles_are_monotone_and_bounded(self):
        built = hist_of([10.0 ** (-k) for k in range(1, 7)] * 3)
        quantiles = [built.quantile(q / 20.0) for q in range(21)]
        assert quantiles == sorted(quantiles)
        assert all(built.min <= q <= built.max for q in quantiles)

    def test_overflow_and_underflow_samples_are_kept(self):
        built = hist_of([0.0, 1.0e-9, 1.0e5])
        assert built.count == 3
        assert built.max == pytest.approx(1.0e5)
        assert built.quantile(1.0) == pytest.approx(1.0e5)

    def test_zero_resets_in_place(self):
        built = hist_of([0.5, 2.0])
        built.zero()
        assert built.count == 0
        assert not any(built.counts)
        built.record(0.25)
        assert built.count == 1

    def test_picklable(self):
        built = hist_of([0.001, 0.2, 3.0])
        clone = pickle.loads(pickle.dumps(built))
        assert clone.counts == built.counts
        assert clone.count == built.count
        assert clone.sum == built.sum

    def test_dict_round_trip(self):
        built = hist_of([0.004, 0.004, 1.7])
        state = json.loads(json.dumps(built.to_dict()))
        clone = Histogram.from_dict(state, "h")
        assert clone.counts == built.counts
        assert clone.count == built.count
        assert clone.min == built.min
        assert clone.max == built.max
        assert clone.p95 == pytest.approx(built.p95)


class TestMerge:
    def test_merge_equals_union_recording(self):
        first, second = [0.001, 0.050], [0.002, 0.9, 12.0]
        merged = hist_of(first).merge(hist_of(second))
        union = hist_of(first + second)
        assert merged.counts == union.counts
        assert merged.count == union.count
        assert merged.min == union.min
        assert merged.max == union.max
        assert merged.sum == pytest.approx(union.sum)

    def test_merging_empty_state_keeps_min(self):
        # An empty histogram serializes min as the 0.0 placeholder;
        # folding it in must not clobber a real observed minimum (an
        # in-place reset leaves count-0 entries that a logged snapshot
        # can carry).
        built = hist_of([0.5, 2.0])
        built.merge_dict(Histogram("empty").to_dict())
        assert built.min == pytest.approx(0.5)
        assert built.count == 2
        built.merge(Histogram("empty"))
        assert built.min == pytest.approx(0.5)

    def test_merge_dicts_matches_object_merge(self):
        first, second = hist_of([0.01, 0.3]), hist_of([0.02])
        via_dicts = merge_histogram_dicts(
            [first.to_dict(), second.to_dict()], "m"
        )
        first.merge(second)
        assert via_dicts.counts == first.counts
        assert via_dicts.count == first.count

    # The satellite property: bucket-merge associativity.  Counts,
    # min/max, and the percentiles derived from them must be *exactly*
    # grouping-independent; the float sum is compared approximately.
    @settings(max_examples=60, deadline=None)
    @given(value_lists, value_lists, value_lists)
    def test_merge_is_associative(self, a, b, c):
        left = hist_of(a).merge(hist_of(b)).merge(hist_of(c))
        right = hist_of(a).merge(hist_of(b).merge(hist_of(c)))
        assert left.counts == right.counts
        assert left.count == right.count
        assert left.min == right.min
        assert left.max == right.max
        assert left.sum == pytest.approx(right.sum)
        for q in (0.5, 0.95, 0.99):
            assert left.quantile(q) == pytest.approx(right.quantile(q))

    @settings(max_examples=60, deadline=None)
    @given(value_lists, value_lists)
    def test_merge_is_commutative_on_buckets(self, a, b):
        forward = hist_of(a).merge(hist_of(b))
        backward = hist_of(b).merge(hist_of(a))
        assert forward.counts == backward.counts
        assert forward.min == backward.min
        assert forward.max == backward.max

    @settings(max_examples=60, deadline=None)
    @given(value_lists)
    def test_serialized_merge_agrees_with_direct_recording(self, samples):
        half = len(samples) // 2
        via_dicts = merge_histogram_dicts(
            [
                hist_of(samples[:half]).to_dict(),
                hist_of(samples[half:]).to_dict(),
            ]
        )
        direct = hist_of(samples)
        assert via_dicts.counts == direct.counts
        assert via_dicts.count == direct.count


class TestMetricsLog:
    def test_run_records_are_valid_jsonl(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with MetricsLog(str(path)) as log:
            log.log_run(
                command="solve",
                status=0,
                seconds=0.5,
                snapshot={"schema": "repro.obs/v1", "counters": {"x": 1}},
                run_id="abc123",
                argv=["solve", "s", "i"],
            )
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["schema"] == "repro.obs/log/v1"
        assert record["kind"] == "run"
        assert record["command"] == "solve"
        assert record["status"] == 0
        assert record["snapshot"]["counters"]["x"] == 1
        assert record["run_id"] == "abc123"

    def test_appends_across_instances(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        for index in range(3):
            with MetricsLog(str(path)) as log:
                log.write_record({"kind": "run", "index": index})
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["index"] for line in lines] == [0, 1, 2]

    def test_every_line_is_a_single_write(self, tmp_path):
        # A record is serialized to one string (including the newline)
        # and handed to one write() call -- the property that keeps
        # concurrent appenders from interleaving partial lines.
        path = tmp_path / "metrics.jsonl"
        log = MetricsLog(str(path))
        writes = []
        original = log._handle.write
        log._handle.write = lambda text: (writes.append(text), original(text))
        log.write_record({"kind": "run", "snapshot": {}})
        log._handle.write = original
        log.close()
        assert len(writes) == 1
        assert writes[0].endswith("\n")
        assert "\n" not in writes[0][:-1]

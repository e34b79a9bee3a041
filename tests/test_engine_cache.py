"""The content-addressed result cache: storage, LRU, invalidation."""

import json
import os
import subprocess
import sys

import pytest

import repro.obs as obs
from repro.core import Atom, Const, Instance, Null, RelationSymbol
from repro.engine import CACHE_SCHEMA, CACHE_VERSION, ResultCache
from repro.chase.loop import DEFAULT_MAX_STEPS
from repro.engine.fingerprint import solve_key, task_key
from repro.exchange.solve import DEFAULT_ENGINE, solve
from repro.generators.settings_library import (
    example_2_1_setting,
    example_2_1_source,
)

E = RelationSymbol("E", 2)

KEY = task_key("test", "payload-one")
OTHER = task_key("test", "payload-two")


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.reset()
    yield
    obs.reset()


def counters():
    return obs.snapshot().get("counters", {})


class TestStorage:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("solve", KEY) is None
        cache.put("solve", KEY, {"answer": 42})
        assert cache.get("solve", KEY) == {"answer": 42}
        found = counters()
        assert found["engine.cache.misses"] == 1
        assert found["engine.cache.hits"] == 1
        assert found["engine.cache.writes"] == 1

    def test_persists_across_cache_objects(self, tmp_path):
        ResultCache(tmp_path).put("solve", KEY, {"answer": 42})
        reopened = ResultCache(tmp_path)
        assert reopened.get("solve", KEY) == {"answer": 42}
        # Second object had an empty memory tier: that was a disk hit.
        assert counters().get("engine.cache.memory_hits", 0) == 0

    def test_kinds_are_disjoint(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("solve", KEY, {"kind": "solve"})
        assert cache.get("answers", KEY) is None

    def test_versioned_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("solve", KEY, {})
        assert path == (
            tmp_path / "repro.engine" / "cache" / CACHE_VERSION
            / "solve" / KEY[:2] / f"{KEY}.json"
        )
        assert json.loads(path.read_text())["schema"] == CACHE_SCHEMA

    def test_len_counts_disk_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put("solve", KEY, {})
        cache.put("answers", OTHER, {})
        assert len(cache) == 2


class TestCorruptionTolerance:
    def test_corrupted_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, memory_slots=0)
        path = cache.put("solve", KEY, {"answer": 42})
        path.write_text("{not json", encoding="utf-8")
        assert cache.get("solve", KEY) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, memory_slots=0)
        path = cache.put("solve", KEY, {"answer": 42})
        entry = json.loads(path.read_text())
        entry["schema"] = "repro.engine/v0"
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get("solve", KEY) is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, memory_slots=0)
        path = cache.put("solve", KEY, {"answer": 42})
        target = cache.path_for("solve", OTHER)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(path.read_text(), encoding="utf-8")
        assert cache.get("solve", OTHER) is None


class TestCorruptEntriesInSolve:
    """A corrupt ``solve`` entry is a miss: solve recomputes and rewrites it."""

    def resolve_over(self, tmp_path, corrupt):
        setting = example_2_1_setting()
        source = example_2_1_source()
        cold = solve(setting, source, cache=ResultCache(tmp_path))
        path = ResultCache(tmp_path).path_for(
            "solve",
            solve_key(
                setting,
                source,
                max_steps=DEFAULT_MAX_STEPS,
                engine=DEFAULT_ENGINE,
                core_algorithm="blockwise",
            ),
        )
        good = path.read_bytes()
        corrupt(path, json.loads(good))
        obs.reset()
        # A fresh cache: the memory tier cannot answer for the disk.
        again = solve(setting, source, cache=ResultCache(tmp_path))
        found = counters()
        assert found.get("solve.cache_hits", 0) == 0
        assert found["engine.cache.misses"] == 1
        assert again.canonical_solution == cold.canonical_solution
        assert again.core_solution == cold.core_solution
        assert path.read_bytes() == good

    def test_invalid_utf8_is_a_miss(self, tmp_path):
        def corrupt(path, entry):
            path.write_bytes(b'{"schema": "\xff\xfe\xfd"}')

        self.resolve_over(tmp_path, corrupt)

    def test_non_object_payload_is_a_miss(self, tmp_path):
        def corrupt(path, entry):
            entry["payload"] = [entry["payload"]]
            path.write_text(json.dumps(entry), encoding="utf-8")

        self.resolve_over(tmp_path, corrupt)

    @pytest.mark.parametrize("part", ["relations", "relation body"])
    def test_non_object_relations_are_a_miss(self, tmp_path, part):
        def corrupt(path, entry):
            relations = entry["payload"]["core"]["relations"]
            if part == "relations":
                entry["payload"]["core"]["relations"] = list(relations)
            else:
                relations["E"] = [relations["E"]]
            path.write_text(json.dumps(entry), encoding="utf-8")

        self.resolve_over(tmp_path, corrupt)


class TestMemoryTier:
    def test_lru_eviction(self, tmp_path):
        cache = ResultCache(tmp_path, memory_slots=2)
        keys = [task_key("test", str(i)) for i in range(3)]
        for index, key in enumerate(keys):
            cache.put("solve", key, {"i": index})
        assert cache.memory_size() == 2
        assert counters()["engine.cache.evictions"] == 1
        # The evicted entry still hits, from disk.
        assert cache.get("solve", keys[0]) == {"i": 0}

    def test_get_promotes_recency(self, tmp_path):
        cache = ResultCache(tmp_path, memory_slots=2)
        first, second, third = (task_key("test", str(i)) for i in range(3))
        cache.put("solve", first, {"i": 0})
        cache.put("solve", second, {"i": 1})
        cache.get("solve", first)  # now most recent
        cache.put("solve", third, {"i": 2})  # evicts `second`
        obs.reset()
        cache.get("solve", first)
        assert counters().get("engine.cache.memory_hits", 0) == 1

    def test_zero_slots_disables_memory(self, tmp_path):
        cache = ResultCache(tmp_path, memory_slots=0)
        cache.put("solve", KEY, {"answer": 42})
        assert cache.memory_size() == 0
        assert cache.get("solve", KEY) == {"answer": 42}


class TestInvalidation:
    def test_single_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("solve", KEY, {})
        cache.put("solve", OTHER, {})
        assert cache.invalidate("solve", KEY) == 1
        assert cache.get("solve", KEY) is None
        assert cache.get("solve", OTHER) == {}

    def test_whole_kind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("solve", KEY, {})
        cache.put("answers", KEY, {})
        assert cache.invalidate("solve") == 1
        assert cache.get("solve", KEY) is None
        assert cache.get("answers", KEY) == {}

    def test_clear_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("solve", KEY, {})
        cache.put("answers", OTHER, {})
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.memory_size() == 0

    def test_key_without_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path).invalidate(key=KEY)


class TestSolveIntegration:
    def test_warm_solve_skips_chase(self, tmp_path):
        setting = example_2_1_setting()
        source = example_2_1_source()
        cache = ResultCache(tmp_path)
        cold = solve(setting, source, cache=cache)
        obs.reset()
        warm = solve(setting, source, cache=cache)
        found = counters()
        assert found["solve.cache_hits"] == 1
        # No chase ran: its firing counters never moved.
        assert all(
            value == 0
            for name, value in found.items()
            if name.startswith("chase.")
        )
        assert warm.canonical_solution == cold.canonical_solution
        assert warm.core_solution == cold.core_solution
        assert warm.chase_steps == cold.chase_steps

    def test_compute_core_upgrade(self, tmp_path):
        setting = example_2_1_setting()
        source = example_2_1_source()
        cache = ResultCache(tmp_path)
        partial = solve(setting, source, cache=cache, compute_core=False)
        assert partial.core_solution is None
        upgraded = solve(setting, source, cache=cache, compute_core=True)
        assert upgraded.core_solution is not None
        # The upgraded entry now serves full results directly.
        obs.reset()
        warm = solve(setting, source, cache=cache, compute_core=True)
        assert warm.core_solution == upgraded.core_solution
        assert all(
            value == 0
            for name, value in counters().items()
            if name.startswith("core.")
        )

    def test_isomorphic_sources_share_an_entry(self, tmp_path):
        setting = example_2_1_setting()
        source = example_2_1_source()
        cache = ResultCache(tmp_path)
        solve(setting, source, cache=cache)
        obs.reset()
        # Same atoms, different insertion order: same canonical key.
        reordered = Instance(list(reversed(sorted(source))))
        solve(setting, reordered, cache=cache)
        assert counters()["solve.cache_hits"] == 1

    def test_failed_chase_verdict_is_cached(self, tmp_path):
        from repro.core import Schema
        from repro.exchange import DataExchangeSetting
        from repro.logic import parse_instance

        setting = DataExchangeSetting.from_strings(
            Schema.of(M=2),
            Schema.of(Dept=2),
            ["M(d, m) -> Dept(d, m)"],
            ["Dept(d, m1) & Dept(d, m2) -> m1 = m2"],
        )
        source = parse_instance("M('d1', 'ann'), M('d1', 'bob')")
        cache = ResultCache(tmp_path)
        first = solve(setting, source, cache=cache)
        assert not first.cwa_solution_exists
        obs.reset()
        again = solve(setting, source, cache=cache)
        assert not again.cwa_solution_exists
        assert counters()["solve.cache_hits"] == 1


def test_importing_the_library_loads_no_process_machinery():
    # bench/ workloads import repro.engine, so whatever it imports lands
    # in every workload's setup time.
    import repro

    probe = (
        "import sys, repro.engine, repro.answering, repro.cwa\n"
        "print(sorted(name for name in sys.modules if name in "
        "('multiprocessing', 'concurrent.futures.process')))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    assert loaded == "[]"

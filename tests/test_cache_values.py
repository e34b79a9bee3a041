"""Decoded values in the result cache's memory tier.

``ResultCache`` keeps, beside each memory-tier payload, a decoded
value: ``solve`` and ``DeltaSession`` store ``(canonical, core, steps)``
with private copy-on-write snapshots of the two instances, the answer
cache stores the answer frozenset.  An in-process hit hands out copies
of the snapshots without touching the JSON codec.  These tests pin that a hit is
independent of every other hit and of the writer, that memory hits,
disk hits and uncached solves agree, and that the disk bytes are
the ones the codec has always written.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.obs as obs
from repro.answering import all_four_semantics
from repro.chase.loop import DEFAULT_MAX_STEPS
from repro.core import Atom, Const, Instance, Null, RelationSymbol, Schema
from repro.engine import ResultCache, fingerprint_instance
from repro.engine.fingerprint import solve_key, task_key
from repro.exchange import DataExchangeSetting
from repro.exchange.solve import DEFAULT_ENGINE, solve
from repro.generators.settings_library import (
    example_2_1_setting,
    example_2_1_source,
)
from repro.incremental import DeltaSession, SourceDelta
from repro.logic import parse_instance, parse_query

KEY = task_key("test", "value-one")

R = RelationSymbol("R", 2)


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.reset()
    yield
    obs.reset()


def counters():
    return obs.snapshot().get("counters", {})


def anchored_setting():
    """Nothing folds: the core is the canonical solution."""
    return DataExchangeSetting.from_strings(
        Schema.of(R=2),
        Schema.of(A=2, B=2, C=2),
        ["R(x,y) -> exists z . A(x,z) & B(z,y)"],
        ["B(z,y) -> exists w . C(y,w)"],
    )


def anchored_source(rows=3):
    return Instance(
        Atom(R, (Const(f"s{i}"), Const(f"t{i}"))) for i in range(rows)
    )


def failing_setting():
    return DataExchangeSetting.from_strings(
        Schema.of(M=2),
        Schema.of(Dept=2),
        ["M(d, m) -> Dept(d, m)"],
        ["Dept(d, m1) & Dept(d, m2) -> m1 = m2"],
    )


CASES = {
    "example_2_1": lambda: (example_2_1_setting(), example_2_1_source()),
    "anchored": lambda: (anchored_setting(), anchored_source()),
    "failing": lambda: (
        failing_setting(),
        parse_instance("M('d1', 'ann'), M('d1', 'bob')"),
    ),
}


def fp(instance):
    return None if instance is None else instance.fingerprint(canonical=True)


def fps(result):
    return (
        fp(result.canonical_solution),
        fp(result.core_solution),
        result.chase_steps,
    )


def snapshot(result):
    """The atom sets and chase steps of a result, frozen."""
    return (
        None
        if result.canonical_solution is None
        else result.canonical_solution.frozen(),
        None if result.core_solution is None else result.core_solution.frozen(),
        result.chase_steps,
    )


def assert_indexed(instance):
    """Every index probe agrees with an instance rebuilt from the atoms."""
    rebuilt = Instance(list(instance))
    assert instance.relation_names() == rebuilt.relation_names()
    assert instance.nulls() == rebuilt.nulls()
    for name in rebuilt.relation_names():
        assert instance.atoms_of(name) == rebuilt.atoms_of(name)
    for item in rebuilt:
        for position, value in enumerate(item.args):
            assert instance.atoms_with(
                item.relation, position, value
            ) == rebuilt.atoms_with(item.relation, position, value)
            assert instance.has_tuple(item.relation.name, item.args)


def solve_entry_key(setting, source, engine=DEFAULT_ENGINE):
    return solve_key(
        setting,
        source,
        max_steps=DEFAULT_MAX_STEPS,
        engine=engine,
        core_algorithm="blockwise",
    )


def forbid_decoding(monkeypatch):
    """Make any decode of a ``solve`` payload fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("a memory-tier hit decoded its payload")

    # ``repro.exchange.solve`` names the function; patch the module.
    module = sys.modules[solve.__module__]
    monkeypatch.setattr(module, "atoms_from_payload", refuse)


class TestResultCacheValues:
    def test_put_value_is_served_without_decoding(self, tmp_path):
        cache = ResultCache(tmp_path)
        value = ("decoded",)
        cache.put("solve", KEY, {"answer": 42}, value)

        def refuse(payload):
            raise AssertionError("decoded a slot that holds a value")

        assert cache.get_value("solve", KEY, refuse) is value
        assert cache.get("solve", KEY) == {"answer": 42}
        assert counters()["engine.cache.memory_hits"] == 2

    def test_payload_is_decoded_once_per_slot(self, tmp_path):
        ResultCache(tmp_path).put("solve", KEY, {"answer": 42})
        cache = ResultCache(tmp_path)
        calls = []

        def decode(payload):
            calls.append(payload)
            return (payload["answer"],)

        first = cache.get_value("solve", KEY, decode)
        second = cache.get_value("solve", KEY, decode)
        assert first == (42,) and second is first
        assert len(calls) == 1
        assert counters()["engine.cache.hits"] == 2
        assert counters()["engine.cache.memory_hits"] == 1

    def test_rejected_payload_is_a_miss_and_leaves_memory(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("solve", KEY, {"answer": 42})
        assert cache.get_value("solve", KEY, lambda payload: None) is None
        assert counters()["engine.cache.misses"] == 1
        assert counters().get("engine.cache.hits", 0) == 0
        assert cache.memory_size() == 0

    def test_zero_slots_decode_every_lookup(self, tmp_path):
        cache = ResultCache(tmp_path, memory_slots=0)
        cache.put("solve", KEY, {"answer": 42}, (42,))
        calls = []

        def decode(payload):
            calls.append(payload)
            return (payload["answer"],)

        assert cache.get_value("solve", KEY, decode) == (42,)
        assert cache.get_value("solve", KEY, decode) == (42,)
        assert len(calls) == 2
        assert cache.memory_size() == 0

    def test_invalidate_drops_the_value(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("solve", KEY, {"answer": 42}, ("stale",))
        cache.invalidate("solve", KEY)
        cache.put("solve", KEY, {"answer": 43})
        assert cache.get_value(
            "solve", KEY, lambda payload: (payload["answer"],)
        ) == (43,)


class TestSolveHits:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_memory_and_disk_hits_match_from_scratch(self, tmp_path, case):
        setting, source = CASES[case]()
        baseline = solve(setting, source)
        cache = ResultCache(tmp_path)
        cold = solve(setting, source, cache=cache)
        memory = solve(setting, source, cache=cache)
        disk = solve(setting, source, cache=ResultCache(tmp_path))
        assert counters()["solve.cache_hits"] == 2
        assert counters()["engine.cache.memory_hits"] == 1
        assert fps(cold) == fps(memory) == fps(disk) == fps(baseline)
        assert memory.canonical_solution == cold.canonical_solution
        assert memory.core_solution == cold.core_solution
        assert disk.core_solution == cold.core_solution

    @pytest.mark.parametrize("case", ["example_2_1", "anchored"])
    def test_hits_are_independent_of_writer_and_each_other(
        self, tmp_path, case
    ):
        setting, source = CASES[case]()
        baseline = solve(setting, source)
        cache = ResultCache(tmp_path)
        written = solve(setting, source, cache=cache)
        stray = Atom(
            next(iter(written.core_solution)).relation,
            (Const("stray"), Null(999)),
        )
        for result in (written, solve(setting, source, cache=cache)):
            result.canonical_solution.add(stray)
            result.core_solution.add(stray)
            result.core_solution.discard(
                next(iter(baseline.core_solution))
            )
        again = solve(setting, source, cache=cache)
        assert again.canonical_solution == baseline.canonical_solution
        assert again.core_solution == baseline.core_solution
        assert fps(again) == fps(baseline)

    def test_zero_memory_slots_still_serve_hits(self, tmp_path):
        setting, source = CASES["anchored"]()
        cache = ResultCache(tmp_path, memory_slots=0)
        cold = solve(setting, source, cache=cache)
        warm = solve(setting, source, cache=cache)
        assert counters()["solve.cache_hits"] == 1
        assert counters().get("engine.cache.memory_hits", 0) == 0
        assert cache.memory_size() == 0
        assert fps(warm) == fps(cold)
        assert warm.core_solution == cold.core_solution

    @pytest.mark.parametrize("tier", ["memory", "disk"])
    def test_core_equal_to_canonical_is_a_distinct_instance(
        self, tmp_path, tier
    ):
        setting, source = CASES["anchored"]()
        cache = ResultCache(tmp_path)
        cold = solve(setting, source, cache=cache)
        assert cold.core_solution == cold.canonical_solution
        reader = cache if tier == "memory" else ResultCache(tmp_path)
        hit = solve(setting, source, cache=reader)
        assert hit.core_solution is not hit.canonical_solution
        assert hit.core_solution == hit.canonical_solution
        value = reader.get_value(
            "solve", solve_entry_key(setting, source), lambda payload: None
        )
        assert value[0] is value[1]
        hit.core_solution.discard(next(iter(hit.core_solution)))
        assert hit.canonical_solution == cold.canonical_solution

    def test_memory_hits_never_decode(self, tmp_path, monkeypatch):
        setting, source = CASES["example_2_1"]()
        cache = ResultCache(tmp_path)
        cold = solve(setting, source, cache=cache)
        forbid_decoding(monkeypatch)
        warm = solve(setting, source, cache=cache)
        assert fps(warm) == fps(cold)

    def test_core_upgrade_re_puts_a_value(self, tmp_path, monkeypatch):
        setting, source = CASES["example_2_1"]()
        baseline = solve(setting, source)
        cache = ResultCache(tmp_path)
        partial = solve(setting, source, cache=cache, compute_core=False)
        assert partial.core_solution is None
        upgraded = solve(setting, source, cache=cache)
        assert upgraded.core_solution is not None
        forbid_decoding(monkeypatch)
        obs.reset()
        warm = solve(setting, source, cache=cache)
        assert fps(warm) == fps(upgraded) == fps(baseline)
        assert all(
            value == 0
            for name, value in counters().items()
            if name.startswith("core.")
        )

    def test_session_writes_serve_batch_reads_without_decoding(
        self, tmp_path, monkeypatch
    ):
        setting, source = CASES["anchored"]()
        cache = ResultCache(tmp_path)
        session = DeltaSession(setting, source, cache=cache)
        delta = SourceDelta(
            insertions=[Atom(R, (Const("u"), Const("v")))],
            deletions=[Atom(R, (Const("s0"), Const("t0")))],
        )
        written = session.apply(delta)
        edited = delta.apply_to(source)
        forbid_decoding(monkeypatch)
        read = solve(setting, edited, engine="seminaive", cache=cache)
        assert counters()["solve.cache_hits"] == 1
        assert read.core_solution == written.core_solution
        assert read.core_solution is not written.core_solution
        assert read.core_solution is not read.canonical_solution


    @pytest.mark.parametrize("case", ["example_2_1", "anchored"])
    def test_edits_of_a_hit_never_reach_the_next_hit(self, tmp_path, case):
        setting, source = CASES[case]()
        cache = ResultCache(tmp_path)
        cold = solve(setting, source, cache=cache)
        expected = snapshot(cold)
        hit = solve(setting, source, cache=cache)
        for instance in (hit.canonical_solution, hit.core_solution):
            first = instance.sorted_atoms()[0]
            instance.replace_value(min(instance.nulls()), Const("merged"))
            instance.discard(instance.sorted_atoms()[-1])
            instance.add(Atom(first.relation, (Const("stray"), Null(999))))
        again = solve(setting, source, cache=cache)
        assert counters()["engine.cache.memory_hits"] == 2
        assert snapshot(again) == expected
        assert_indexed(again.canonical_solution)
        assert_indexed(again.core_solution)

    def test_a_continuing_session_never_reaches_its_cached_results(
        self, tmp_path
    ):
        setting, source = CASES["anchored"]()
        cache = ResultCache(tmp_path)
        session = DeltaSession(setting, source, cache=cache)
        delta = SourceDelta(
            insertions=[Atom(R, (Const("u"), Const("v")))],
            deletions=[Atom(R, (Const("s0"), Const("t0")))],
        )
        written = session.apply(delta)
        expected = snapshot(written)
        # The session edits its source, chase state, canonical solution
        # and core in place; the writer's result is edited too.
        session.apply(
            SourceDelta(
                insertions=[Atom(R, (Const("w"), Const("v")))],
                deletions=[Atom(R, (Const("s1"), Const("t1")))],
            )
        )
        for instance in (written.canonical_solution, written.core_solution):
            instance.discard(instance.sorted_atoms()[0])
        edited = delta.apply_to(source)
        read = solve(setting, edited, engine="seminaive", cache=cache)
        assert counters()["solve.cache_hits"] == 1
        assert counters()["engine.cache.memory_hits"] == 1
        assert snapshot(read) == expected
        assert_indexed(read.canonical_solution)
        assert_indexed(read.core_solution)
        batch = solve(setting, edited, engine="seminaive")
        assert fps(read)[:2] == fps(batch)[:2]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_memory_and_disk_hits_build_equal_instances(self, tmp_path, case):
        setting, source = CASES[case]()
        cache = ResultCache(tmp_path)
        solve(setting, source, cache=cache)
        memory = solve(setting, source, cache=cache)
        disk = solve(setting, source, cache=ResultCache(tmp_path))
        assert counters()["engine.cache.memory_hits"] == 1
        assert snapshot(memory) == snapshot(disk)
        for left, right in (
            (memory.canonical_solution, disk.canonical_solution),
            (memory.core_solution, disk.core_solution),
        ):
            if left is None:
                assert right is None
                continue
            assert fingerprint_instance(left) == fingerprint_instance(right)
            assert_indexed(left)
            assert_indexed(right)


class TestAnswerHits:
    def test_repeated_hits_skip_the_codec(self, tmp_path, monkeypatch):
        setting, source = CASES["example_2_1"]()
        query = parse_query("Q(x, y) :- E(x, y)")
        cache = ResultCache(tmp_path)
        cold = all_four_semantics(setting, source, query, cache=cache)

        def refuse(rows):
            raise AssertionError("a memory-tier answer hit decoded its rows")

        with monkeypatch.context() as patched:
            patched.setattr("repro.io.answers_from_json", refuse)
            obs.reset()
            warm = all_four_semantics(setting, source, query, cache=cache)
        assert warm == cold
        assert counters()["answering.cache_hits"] == 4
        assert all(isinstance(answers, frozenset) for answers in warm.values())
        # A fresh cache reads the disk entries through the codec.
        obs.reset()
        disk = all_four_semantics(
            setting, source, query, cache=ResultCache(tmp_path)
        )
        assert disk == cold
        assert counters()["answering.cache_hits"] == 4


#: sha256 of each entry file, recorded at the commit before the memory
#: tier kept decoded values, under PYTHONHASHSEED=0.  The default engine
#: is part of a solve key; since it became semi-naive, a default solve's
#: entry is the entry a session writes for the same source ("anchored"
#: and the first "session" digest).
DISK_DIGESTS = {
    "example_2_1": [
        "cc11ff4017b04c3e2341a62dcfdfaa8275a5516561ea43f851a417632be9f0df"
    ],
    "example_2_1_partial": [
        "bea6d46a86104af4aec35e1f7af89868207be67889e7fd0806f0be20aa4acbbd"
    ],
    "example_2_1_upgraded": [
        "cc11ff4017b04c3e2341a62dcfdfaa8275a5516561ea43f851a417632be9f0df"
    ],
    "anchored": [
        "238a8589ec2c59f988329d05036ec1ae9dfac3848b568a75a60a9521c738a07c"
    ],
    "session": [
        "238a8589ec2c59f988329d05036ec1ae9dfac3848b568a75a60a9521c738a07c",
        "a5f7a96907b6b2f784bd5ee4cba1c33e759282b9016bf1015421972dea7e3aee",
    ],
}

#: The Example 2.1 entry, byte for byte (null names do not depend on
#: the hash seed here).
EXAMPLE_2_1_ENTRY = (
    '{"key": "f88777b5acbb5b9dee87f21e2d50a8f30ca9c8706607b7b62cc01c274e2319ce",'
    ' "kind": "solve", "payload": {"canonical": {"relations": {"E": {"arity": 2,'
    ' "rows": [[["c", "a"], ["c", "b"]], [["c", "a"], ["n", 0]]]}, "F": {"arity":'
    ' 2, "rows": [[["c", "a"], ["n", 1]]]}, "G": {"arity": 2, "rows": [[["n", 1],'
    ' ["n", 2]]]}}, "schema": "repro.io/v1"}, "chase_steps": 3, "core":'
    ' {"relations": {"E": {"arity": 2, "rows": [[["c", "a"], ["c", "b"]]]}, "F":'
    ' {"arity": 2, "rows": [[["c", "a"], ["n", 1]]]}, "G": {"arity": 2, "rows":'
    ' [[["n", 1], ["n", 2]]]}}, "schema": "repro.io/v1"}, "status": "solved"},'
    ' "schema": "repro.engine/v1"}'
)

_DIGEST_SCRIPT = """
import hashlib, sys, tempfile
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from test_cache_values import CASES, R, anchored_setting, anchored_source
from repro.core import Atom, Const
from repro.engine import ResultCache
from repro.exchange.solve import solve
from repro.incremental import DeltaSession, SourceDelta

def digests(run):
    with tempfile.TemporaryDirectory() as directory:
        cache = ResultCache(directory)
        run(cache)
        return sorted(
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in cache.root.glob("*/*/*.json")
        )

def session(cache):
    setting, source = anchored_setting(), anchored_source()
    DeltaSession(setting, source, cache=cache).apply(SourceDelta(
        insertions=[Atom(R, (Const("u"), Const("v")))],
        deletions=[Atom(R, (Const("s0"), Const("t0")))],
    ))

example = CASES["example_2_1"]()
runs = {{
    "example_2_1": lambda cache: solve(*example, cache=cache),
    "example_2_1_partial": lambda cache: solve(
        *example, cache=cache, compute_core=False
    ),
    "example_2_1_upgraded": lambda cache: (
        solve(*example, cache=cache, compute_core=False),
        solve(*example, cache=cache),
    ),
    "anchored": lambda cache: solve(*CASES["anchored"](), cache=cache),
    "session": session,
}}
for name, run in runs.items():
    print(name, *digests(run))
"""


class TestDiskBytes:
    def test_example_2_1_entry_text(self, tmp_path):
        setting, source = CASES["example_2_1"]()
        path = ResultCache(tmp_path).path_for(
            "solve", solve_entry_key(setting, source)
        )
        solve(setting, source, cache=ResultCache(tmp_path))
        assert path.read_text(encoding="utf-8") == EXAMPLE_2_1_ENTRY

    def test_entries_match_recorded_digests(self):
        src_dir = repro.__file__.rsplit("/repro/", 1)[0]
        tests_dir = str(Path(__file__).resolve().parent)
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                _DIGEST_SCRIPT.format(src=src_dir, tests=tests_dir),
            ],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": "0", "PATH": "/usr/bin:/bin"},
            check=True,
        )
        found = {}
        for line in completed.stdout.splitlines():
            name, *digests = line.split()
            found[name] = digests
        assert found == DISK_DIGESTS

    def test_entry_digest_is_the_text_digest(self):
        digest = hashlib.sha256(EXAMPLE_2_1_ENTRY.encode("utf-8")).hexdigest()
        assert [digest] == DISK_DIGESTS["example_2_1"]

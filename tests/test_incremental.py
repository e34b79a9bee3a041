"""Incremental re-solving: delta sessions, delta codec, memoized core.

The correctness bar (ISSUE 10): every incrementally maintained result
must be fp/v1-fingerprint-identical (on the core, the canonical form the
engine fingerprints) to a from-scratch solve of the edited source --
deterministically on the worked examples, and property-tested over
random edit streams against random weakly acyclic settings, including
egd merges, deletions, and the documented full-re-solve fallbacks.
"""

import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro import DeltaSession, SourceDelta, parse_instance
from repro.core import Atom, Const, Instance, ReproError, Schema
from repro.core.schema import RelationSymbol
from repro.dependencies import Tgd
from repro.engine import ResultCache, fingerprint_instance
from repro.engine.cache import CACHE_SCHEMA
from repro.engine.fingerprint import solve_key
from repro.exchange.setting import DataExchangeSetting
from repro.exchange.solve import solve
from repro.generators import (
    example_2_1_setting,
    example_2_1_scaled_source,
    example_2_1_source,
    random_source_for,
    random_weakly_acyclic_setting,
)
from repro.homomorphism.blocks import null_blocks
from repro.io import dumps_delta, instance_to_payload, loads_delta
from repro.obs.provenance import recording


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.reset()
    yield
    obs.reset()


def _fp(instance):
    return fingerprint_instance(instance, canonical=True)


def _assert_parity(session_result, setting, source):
    """The session's result vs a from-scratch seminaive solve."""
    batch = solve(setting, source, engine="seminaive")
    assert session_result.cwa_solution_exists == batch.cwa_solution_exists
    if batch.cwa_solution_exists:
        assert _fp(session_result.core_solution) == _fp(batch.core_solution)


def _anchored_setting():
    """Egd-free, constant-anchored blocks: the fully incremental regime."""
    return DataExchangeSetting.from_strings(
        Schema.of(R=2),
        Schema.of(A=2, B=2, C=2),
        ["R(x,y) -> exists z . A(x,z) & B(z,y)"],
        ["B(z,y) -> exists w . C(y,w)"],
    )


def _anchored_source(rows):
    r = RelationSymbol("R", 2)
    return Instance(
        Atom(r, (Const(f"s{i}"), Const(f"t{i}"))) for i in range(rows)
    )


class TestSourceDelta:
    def test_apply_to_and_effective(self):
        source = parse_instance("M('a','b'), N('a','b')")
        delta = SourceDelta(
            insertions=parse_instance("N('a','c'), N('a','b')"),
            deletions=parse_instance("M('a','b'), M('x','y')"),
        )
        edited = delta.apply_to(source)
        assert edited == parse_instance("N('a','b'), N('a','c')")
        insertions, deletions = delta.effective(source)
        # N('a','b') is already present; M('x','y') is absent: both no-ops.
        assert insertions == tuple(parse_instance("N('a','c')"))
        assert deletions == tuple(parse_instance("M('a','b')"))

    def test_insert_wins_over_delete(self):
        source = parse_instance("M('a','b')")
        delta = SourceDelta(
            insertions=parse_instance("M('a','b')"),
            deletions=parse_instance("M('a','b')"),
        )
        assert delta.apply_to(source) == source
        insertions, deletions = delta.effective(source)
        assert insertions == () and deletions == ()

    def test_nulls_rejected(self):
        from repro.core import null

        tainted = Atom(RelationSymbol("M", 2), (null(1), Const("b")))
        with pytest.raises(ReproError):
            SourceDelta(insertions=[tainted])

    def test_json_roundtrip(self):
        delta = SourceDelta(
            insertions=parse_instance("N('a','c')"),
            deletions=parse_instance("M('a','b')"),
        )
        again = SourceDelta.loads(delta.dumps())
        assert again.insertions == delta.insertions
        assert again.deletions == delta.deletions

    def test_codec_schema_enforced(self):
        payload = json.loads(dumps_delta(Instance(), Instance()))
        payload["schema"] = "repro.io/delta/v0"
        with pytest.raises(ReproError):
            loads_delta(json.dumps(payload))

    def test_parse_dsl(self):
        delta = SourceDelta.parse(
            "# a comment\n+ N('a','c')\n\n- M('a','b')\n"
        )
        assert delta.insertions == parse_instance("N('a','c')")
        assert delta.deletions == parse_instance("M('a','b')")

    def test_parse_sniffs_json(self):
        delta = SourceDelta(insertions=parse_instance("N('a','c')"))
        assert SourceDelta.parse(delta.dumps()).insertions == delta.insertions

    def test_parse_rejects_unmarked_lines(self):
        with pytest.raises(ReproError):
            SourceDelta.parse("N('a','c')")


class TestDeltaSessionBasics:
    def test_initial_solve_matches_batch(self):
        setting = example_2_1_setting()
        source = example_2_1_scaled_source(10, seed=1)
        session = DeltaSession(setting, source)
        _assert_parity(session.result, setting, source)

    def test_insertion_only(self):
        setting = example_2_1_setting()
        source = example_2_1_scaled_source(10, seed=2)
        session = DeltaSession(setting, source)
        delta = SourceDelta(insertions=parse_instance("N('u1','u2')"))
        result = session.apply(delta)
        assert session.source == delta.apply_to(source)
        _assert_parity(result, setting, session.source)
        # Insertions never need the full fallback, even with egds around.
        assert obs.counter("incremental.full_fallbacks").value == 0

    def test_deletion_and_rederivation(self):
        setting = _anchored_setting()
        source = _anchored_source(12)
        session = DeltaSession(setting, source)
        victim = sorted(source)[0]
        result = session.apply(SourceDelta(deletions=[victim]))
        _assert_parity(result, setting, session.source)
        assert obs.counter("incremental.retracted").value > 0

    def test_mixed_edit_stream(self):
        setting = _anchored_setting()
        source = _anchored_source(15)
        session = DeltaSession(setting, source)
        r = RelationSymbol("R", 2)
        for step in range(4):
            victim = sorted(session.source)[step]
            fresh = Atom(r, (Const(f"n{step}a"), Const(f"n{step}b")))
            result = session.apply(
                SourceDelta(insertions=[fresh], deletions=[victim])
            )
            _assert_parity(result, setting, session.source)
        assert obs.counter("incremental.full_fallbacks").value == 0
        assert obs.counter("incremental.applies").value == 4

    def test_block_memo_skips_untouched_blocks(self):
        setting = _anchored_setting()
        source = _anchored_source(30)
        session = DeltaSession(setting, source)
        victim = sorted(session.source)[7]
        session.apply(SourceDelta(deletions=[victim]))
        skipped = obs.counter("incremental.blocks_skipped").value
        replayed = obs.counter("incremental.blocks_replayed").value
        reminimized = obs.counter("incremental.blocks_reminimized").value
        # The edit touches one R row's blocks; the other ~29 rows' blocks
        # must be skipped or replayed, not re-minimized.
        assert skipped + replayed > reminimized - 31  # initial pass counts too
        assert skipped + replayed >= 29

    def test_empty_delta_is_identity(self):
        setting = example_2_1_setting()
        source = example_2_1_scaled_source(6, seed=3)
        session = DeltaSession(setting, source)
        before = session.result
        after = session.apply(SourceDelta())
        assert after is before
        assert obs.counter("incremental.delta_rounds").value == 0

    def test_rounds_counter_moves(self):
        setting = _anchored_setting()
        source = _anchored_source(8)
        session = DeltaSession(setting, source)
        session.apply(
            SourceDelta(insertions=parse_instance("R('nx','ny')"))
        )
        assert obs.counter("incremental.delta_rounds").value > 0

    def test_why_not_reports_deleted_by_delta(self):
        setting = _anchored_setting()
        source = _anchored_source(5)
        session = DeltaSession(setting, source)
        victim = sorted(source)[2]
        session.apply(SourceDelta(deletions=[victim]))
        assert "deleted by delta" in session.ledger.why_not(victim)

    def test_validates_edited_source(self):
        setting = example_2_1_setting()
        source = example_2_1_scaled_source(4, seed=4)
        session = DeltaSession(setting, source)
        bad = Instance([Atom(RelationSymbol("Zap", 1), (Const("x"),))])
        with pytest.raises(Exception):
            session.apply(SourceDelta(insertions=bad))

    def test_non_empty_ledger_rejected(self):
        setting = example_2_1_setting()
        source = example_2_1_scaled_source(3, seed=5)
        with recording() as ledger:
            solve(setting, source)
        with pytest.raises(ReproError):
            DeltaSession(setting, source, ledger=ledger)


class TestFallbacks:
    def test_deletion_with_merges_falls_back(self):
        # The key egd merges the Q-tgd's null into the P-copied constant
        # regardless of firing order.  Deletion cones through merges are
        # inexact, so the session must fully re-solve -- and still
        # produce the right fingerprint.
        setting = DataExchangeSetting.from_strings(
            Schema.of(P=2, Q=1),
            Schema.of(F=2, G=1),
            ["P(x,y) -> F(x,y)", "Q(x) -> exists w . F(x,w) & G(w)"],
            ["F(x,y) & F(x,z) -> y = z"],
        )
        source = parse_instance("P('a','b'), Q('a')")
        session = DeltaSession(setting, source)
        assert session.ledger.has_merges()
        victim = sorted(source)[0]
        result = session.apply(SourceDelta(deletions=[victim]))
        assert obs.counter("incremental.full_fallbacks").value == 1
        _assert_parity(result, setting, session.source)

    def test_fo_premise_always_falls_back(self):
        sigma = Schema.of(P=2)
        tau = Schema.of(Q=1)
        tgd = Tgd.parse("(exists y . P(x, y)) -> Q(x)")
        setting = DataExchangeSetting(sigma, tau, [tgd])
        source = parse_instance("P('a','b'), P('c','d')")
        session = DeltaSession(setting, source)
        result = session.apply(
            SourceDelta(insertions=parse_instance("P('e','f')"))
        )
        assert obs.counter("incremental.full_fallbacks").value == 1
        _assert_parity(result, setting, session.source)

    def test_failure_then_recovery(self):
        # An egd equating two constants fails the chase; the session
        # reports it and recovers on the next (repairing) delta.
        setting = DataExchangeSetting.from_strings(
            Schema.of(S=2),
            Schema.of(T=2),
            ["S(x,y) -> T(x,y)"],
            ["T(x,y) & T(x,z) -> y = z"],
        )
        source = parse_instance("S('k','v1')")
        session = DeltaSession(setting, source)
        assert session.result.cwa_solution_exists
        broken = session.apply(
            SourceDelta(insertions=parse_instance("S('k','v2')"))
        )
        assert not broken.cwa_solution_exists
        repaired = session.apply(
            SourceDelta(deletions=parse_instance("S('k','v2')"))
        )
        assert repaired.cwa_solution_exists
        _assert_parity(repaired, setting, session.source)


class TestFromLedger:
    def _solved_ledger(self, setting, source):
        with recording() as ledger:
            solve(setting, source, engine="seminaive")
        return ledger

    def test_resume_and_apply(self):
        setting = _anchored_setting()
        source = _anchored_source(10)
        ledger = self._solved_ledger(setting, source)
        session = DeltaSession.from_ledger(
            setting, source, ledger.dumps()
        )
        _assert_parity(session.result, setting, source)
        victim = sorted(source)[4]
        result = session.apply(SourceDelta(deletions=[victim]))
        _assert_parity(result, setting, session.source)

    def test_resume_from_payload_dict(self):
        setting = example_2_1_setting()
        source = example_2_1_scaled_source(6, seed=7)
        ledger = self._solved_ledger(setting, source)
        session = DeltaSession.from_ledger(
            setting, source, ledger.to_payload()
        )
        _assert_parity(session.result, setting, source)

    def test_resume_writes_the_default_solve_entry(self, tmp_path):
        setting = example_2_1_setting()
        source = example_2_1_source()
        ledger = self._solved_ledger(setting, source)
        cache = ResultCache(tmp_path)
        DeltaSession.from_ledger(setting, source, ledger.dumps(), cache=cache)
        assert len(cache) == 1
        obs.reset()
        solve(setting, source, cache=cache)
        assert obs.counter("solve.cache_hits").value == 1

    def test_wrong_source_rejected(self):
        setting = _anchored_setting()
        source = _anchored_source(5)
        ledger = self._solved_ledger(setting, source)
        other = _anchored_source(6)
        with pytest.raises(ReproError):
            DeltaSession.from_ledger(setting, other, ledger.dumps())

    def test_resume_records_into_supplied_ledger(self):
        from repro.obs.provenance import ProvenanceLedger

        setting = _anchored_setting()
        source = _anchored_source(6)
        persisted = self._solved_ledger(setting, source)
        outer = ProvenanceLedger()
        session = DeltaSession.from_ledger(
            setting, source, persisted.dumps(), ledger=outer
        )
        assert session.ledger is outer
        victim = sorted(source)[1]
        session.apply(SourceDelta(deletions=[victim]))
        assert "deleted by delta" in outer.why_not(victim)


def _example_2_1_edit(source):
    """Insert a fresh N fact and delete the source's first atom."""
    n = RelationSymbol("N", 2)
    return SourceDelta(
        insertions=[Atom(n, (Const("a"), Const("d")))],
        deletions=[sorted(source)[0]],
    )


def _anchored_edit(source):
    """Insert a fresh R row and delete the source's first atom."""
    r = RelationSymbol("R", 2)
    return SourceDelta(
        insertions=[Atom(r, (Const("new1"), Const("new2")))],
        deletions=[sorted(source)[0]],
    )


LEDGER_CASES = {
    "example-2.1": (example_2_1_setting, example_2_1_source, _example_2_1_edit),
    "anchored": (_anchored_setting, lambda: _anchored_source(4), _anchored_edit),
}


class TestTruncatedLedgers:
    """A persisted ledger cut short: a clean error, or the exact result.

    A file cut at a byte offset is no longer JSON and must be refused
    with the typed error.  A ledger whose ``steps`` list stops early is
    still a valid, partial derivation: ``from_ledger`` chases it to
    fixpoint, so every prefix that records the source must resume to
    the from-scratch fp/v1, before and after an edit.
    """

    def _ledger(self, setting, source, engine):
        with recording() as ledger:
            solve(setting, source, engine=engine)
        return ledger

    @pytest.mark.parametrize("case", sorted(LEDGER_CASES))
    def test_byte_truncation_raises_invalid_json(self, case):
        make_setting, make_source, _ = LEDGER_CASES[case]
        setting, source = make_setting(), make_source()
        text = self._ledger(setting, source, "standard").dumps().rstrip()
        for cut in range(0, len(text), max(1, len(text) // 40)):
            with pytest.raises(ReproError, match="^invalid provenance JSON"):
                DeltaSession.from_ledger(setting, source, text[:cut])

    @pytest.mark.parametrize("engine", ["standard", "seminaive"])
    @pytest.mark.parametrize("case", sorted(LEDGER_CASES))
    def test_every_step_prefix_resumes_exactly(self, case, engine):
        make_setting, make_source, make_edit = LEDGER_CASES[case]
        setting, source = make_setting(), make_source()
        payload = self._ledger(setting, source, engine).to_payload()
        steps = payload["steps"]
        assert steps[0]["kind"] == "source" and len(steps) > 2
        delta = make_edit(source)
        edited = delta.apply_to(source)
        expected = _fp(solve(setting, source).core_solution)
        expected_edited = _fp(solve(setting, edited).core_solution)

        # Without its source step the ledger describes another source.
        with pytest.raises(ReproError, match="does not describe"):
            DeltaSession.from_ledger(setting, source, dict(payload, steps=[]))
        for count in range(1, len(steps) + 1):
            prefix = dict(payload, steps=steps[:count])
            session = DeltaSession.from_ledger(setting, source, prefix)
            assert _fp(session.result.core_solution) == expected, count
            result = session.apply(delta)
            assert _fp(result.core_solution) == expected_edited, count


class TestCacheWiring:
    def test_session_results_hit_batch_solves(self, tmp_path):
        setting = _anchored_setting()
        source = _anchored_source(8)
        cache = ResultCache(tmp_path / "cache")
        session = DeltaSession(setting, source, cache=cache)
        victim = sorted(source)[3]
        session.apply(SourceDelta(deletions=[victim]))
        edited = session.source
        obs.reset()
        batch = solve(setting, edited, engine="seminaive", cache=cache)
        assert obs.counter("solve.cache_hits").value == 1
        assert _fp(batch.core_solution) == _fp(
            session.result.core_solution
        )


class TestFingerprintCache:
    def test_fingerprint_cached_until_mutation(self):
        instance = parse_instance("M('a','b'), N('a','c')")
        first = fingerprint_instance(instance, canonical=True)
        before = obs.counter("fingerprint.cache_hits").value
        assert fingerprint_instance(instance, canonical=True) == first
        assert obs.counter("fingerprint.cache_hits").value == before + 1
        instance.add(next(iter(parse_instance("M('x','y')"))))
        changed = fingerprint_instance(instance, canonical=True)
        assert changed != first
        assert obs.counter("fingerprint.cache_hits").value == before + 1

    def test_canonical_cached_and_idempotent(self):
        source = example_2_1_scaled_source(5, seed=8)
        result = solve(example_2_1_setting(), source)
        canonical = result.core_solution.canonical()
        before = obs.counter("fingerprint.cache_hits").value
        assert result.core_solution.canonical() is canonical
        assert obs.counter("fingerprint.cache_hits").value == before + 1
        # A canonical instance is its own canonical form, cached too.
        assert canonical.canonical() is canonical

    def test_copy_carries_caches_and_invalidates_independently(self):
        instance = parse_instance("M('a','b')")
        fp = fingerprint_instance(instance, canonical=True)
        clone = instance.copy()
        before = obs.counter("fingerprint.cache_hits").value
        assert fingerprint_instance(clone, canonical=True) == fp
        assert obs.counter("fingerprint.cache_hits").value == before + 1
        clone.add(next(iter(parse_instance("N('a','c')"))))
        assert fingerprint_instance(clone, canonical=True) != fp
        assert fingerprint_instance(instance, canonical=True) == fp


class TestCliIncremental:
    def test_solve_incremental_from_matches_batch(self, tmp_path):
        from repro.cli import main

        setting_path = tmp_path / "setting.txt"
        setting_path.write_text(
            "source: R/2\ntarget: A/2 B/2 C/2\n"
            "st: R(x,y) -> exists z . A(x,z) & B(z,y)\n"
            "target-dep: B(z,y) -> exists w . C(y,w)\n",
            encoding="utf-8",
        )
        source_path = tmp_path / "source.txt"
        source_path.write_text(
            ", ".join(f"R('s{i}','t{i}')" for i in range(6)),
            encoding="utf-8",
        )
        ledger_path = tmp_path / "ledger.json"
        assert (
            main(
                [
                    "solve",
                    str(setting_path),
                    str(source_path),
                    "--provenance",
                    str(ledger_path),
                ]
            )
            == 0
        )
        delta_path = tmp_path / "edit.delta"
        delta_path.write_text(
            "+ R('new1','new2')\n- R('s0','t0')\n", encoding="utf-8"
        )
        updated_ledger = tmp_path / "ledger2.json"
        assert (
            main(
                [
                    "solve",
                    str(setting_path),
                    str(source_path),
                    "--incremental-from",
                    str(ledger_path),
                    "--delta",
                    str(delta_path),
                    "--provenance",
                    str(updated_ledger),
                    "--fingerprint",
                ]
            )
            == 0
        )
        # Fingerprint parity with a batch solve of the edited source.
        edited_path = tmp_path / "edited.txt"
        edited_path.write_text(
            ", ".join(f"R('s{i}','t{i}')" for i in range(1, 6))
            + ", R('new1','new2')",
            encoding="utf-8",
        )
        from repro.cli import load_setting, load_instance

        setting = load_setting(str(setting_path))
        edited = load_instance(str(edited_path), setting)
        batch = solve(setting, edited, engine="seminaive")
        from repro.obs.provenance import ProvenanceLedger

        resumed = ProvenanceLedger.loads(
            updated_ledger.read_text(encoding="utf-8")
        )
        session = DeltaSession.from_ledger(setting, edited, resumed)
        assert _fp(session.result.core_solution) == _fp(batch.core_solution)

# ----------------------------------------------------------------------
# Property: random edit streams keep fingerprint parity
# ----------------------------------------------------------------------

_SETTING_SEEDS = st.integers(min_value=0, max_value=14)
_EDIT_SCRIPTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),  # deletion pick
        st.integers(min_value=0, max_value=2),  # insertions count
        st.integers(min_value=0, max_value=1),  # deletions count
    ),
    min_size=1,
    max_size=4,
)


def _scripted_delta(session, step, fresh):
    """The delta of one ``_EDIT_SCRIPTS`` step and the new fresh count.

    Deletes the ``pick``-th source atom when asked, and inserts rows of
    fresh constants shaped like existing source atoms.
    """
    pick, insert_count, delete_count = step
    atoms = sorted(session.source)
    deletions = []
    if delete_count and atoms:
        deletions.append(atoms[pick % len(atoms)])
    insertions = []
    for _ in range(insert_count):
        template = atoms[(pick + fresh) % len(atoms)] if atoms else None
        if template is None:
            break
        fresh += 1
        insertions.append(
            Atom(
                template.relation,
                tuple(
                    Const(f"h{fresh}_{i}")
                    for i in range(template.relation.arity)
                ),
            )
        )
    delta = SourceDelta(
        insertions=Instance(insertions), deletions=Instance(deletions)
    )
    return delta, fresh


class TestEditStreamParity:
    @given(seed=_SETTING_SEEDS, script=_EDIT_SCRIPTS)
    @settings(max_examples=25, deadline=None)
    def test_random_edit_streams(self, seed, script):
        setting = random_weakly_acyclic_setting(seed, egd_probability=0.4)
        source = random_source_for(setting, seed=seed + 1)
        try:
            session = DeltaSession(setting, source)
        except Exception:
            return  # divergent/failed base instances are out of scope here
        fresh = 0
        for step in script:
            delta, fresh = _scripted_delta(session, step, fresh)
            result = session.apply(delta)
            batch = solve(setting, session.source, engine="seminaive")
            assert result.cwa_solution_exists == batch.cwa_solution_exists
            if batch.cwa_solution_exists:
                assert _fp(result.core_solution) == _fp(batch.core_solution)

    @given(seed=st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_example_2_1_single_edits(self, seed):
        setting = example_2_1_setting()
        source = example_2_1_scaled_source(8, seed=seed)
        session = DeltaSession(setting, source)
        atoms = sorted(source)
        victim = atoms[seed % len(atoms)]
        result = session.apply(SourceDelta(deletions=[victim]))
        _assert_parity(result, setting, session.source)


# ----------------------------------------------------------------------
# The sorted rows a session keeps for its cache entries
# ----------------------------------------------------------------------


def _check_rows(session):
    """The kept rows are the canonical solution's sorted atoms, and the
    entry on disk is the one the JSON encoder writes for the result."""
    result = session.result
    key = solve_key(
        session.setting,
        session.source,
        max_steps=session.max_steps,
        engine="seminaive",
        core_algorithm="blockwise",
    )
    text = session.cache.path_for("solve", key).read_text(encoding="utf-8")
    expected = {
        "schema": CACHE_SCHEMA,
        "kind": "solve",
        "key": key,
        "payload": {
            "status": "solved" if result.cwa_solution_exists else "failed",
            "chase_steps": result.chase_steps,
            "canonical": None,
            "core": None,
        },
    }
    if result.cwa_solution_exists:
        canonical = result.canonical_solution
        assert session._canonical_rows == canonical.sorted_atoms()
        expected["payload"]["canonical"] = instance_to_payload(canonical)
        expected["payload"]["core"] = instance_to_payload(
            result.core_solution
        )
    assert text == json.dumps(expected, sort_keys=True)


def _forbid_sorting(monkeypatch):
    def refuse(instance):
        raise AssertionError("a cached apply sorted an instance")

    monkeypatch.setattr(Instance, "sorted_atoms", refuse)


class TestCachedRows:
    """With a cache, the session keeps the canonical solution's atoms in
    sort-key order across applies instead of sorting them per entry."""

    @given(seed=_SETTING_SEEDS, script=_EDIT_SCRIPTS)
    @settings(max_examples=25, deadline=None)
    def test_random_edit_streams(self, seed, script):
        setting = random_weakly_acyclic_setting(seed, egd_probability=0.4)
        source = random_source_for(setting, seed=seed + 1)
        with tempfile.TemporaryDirectory() as directory:
            try:
                session = DeltaSession(
                    setting, source, cache=ResultCache(directory)
                )
            except Exception:
                return  # divergent base instances are out of scope here
            _check_rows(session)
            fresh = 0
            for step in script:
                delta, fresh = _scripted_delta(session, step, fresh)
                session.apply(delta)
                _check_rows(session)

    def test_insertions_and_deletions(self, tmp_path):
        session = DeltaSession(
            _anchored_setting(),
            _anchored_source(12),
            cache=ResultCache(tmp_path),
        )
        for index in range(6):
            session.apply(
                _swap(session, [index, index + 3], [f"w{index}", f"v{index}"])
            )
            _check_rows(session)
        assert obs.counter("incremental.full_fallbacks").value == 0

    def test_egd_deletion_falls_back_and_sorts_once(self, tmp_path):
        setting = DataExchangeSetting.from_strings(
            Schema.of(P=2, Q=1),
            Schema.of(F=2, G=1),
            ["P(x,y) -> F(x,y)", "Q(x) -> exists w . F(x,w) & G(w)"],
            ["F(x,y) & F(x,z) -> y = z"],
        )
        source = parse_instance("P('a','b'), Q('a'), P('c','d'), Q('c')")
        session = DeltaSession(setting, source, cache=ResultCache(tmp_path))
        assert session.ledger.has_merges()
        session.apply(SourceDelta(deletions=parse_instance("P('a','b')")))
        assert obs.counter("incremental.full_fallbacks").value == 1
        _check_rows(session)
        session.apply(SourceDelta(insertions=parse_instance("P('e','f')")))
        _check_rows(session)

    def test_failure_then_recovery(self, tmp_path):
        setting = DataExchangeSetting.from_strings(
            Schema.of(S=2),
            Schema.of(T=2),
            ["S(x,y) -> T(x,y)"],
            ["T(x,y) & T(x,z) -> y = z"],
        )
        source = parse_instance("S('k','v1'), S('j','w')")
        session = DeltaSession(setting, source, cache=ResultCache(tmp_path))
        broken = session.apply(
            SourceDelta(insertions=parse_instance("S('k','v2')"))
        )
        assert not broken.cwa_solution_exists
        assert session._canonical_rows is None
        _check_rows(session)
        repaired = session.apply(
            SourceDelta(deletions=parse_instance("S('k','v2')"))
        )
        assert repaired.cwa_solution_exists
        _check_rows(session)
        session.apply(SourceDelta(insertions=parse_instance("S('m','x')")))
        _check_rows(session)

    def test_from_ledger_resume(self, tmp_path):
        setting = _anchored_setting()
        source = _anchored_source(10)
        with recording() as ledger:
            solve(setting, source, engine="seminaive")
        session = DeltaSession.from_ledger(
            setting, source, ledger.dumps(), cache=ResultCache(tmp_path)
        )
        assert session._canonical_rows == (
            session.result.canonical_solution.sorted_atoms()
        )
        for index in range(3):
            session.apply(_swap(session, [index], [f"r{index}"]))
            _check_rows(session)

    def test_no_cache_keeps_no_rows(self):
        session = DeltaSession(_anchored_setting(), _anchored_source(6))
        session.apply(_swap(session, [1], ["x"]))
        assert session._canonical_rows is None

    def test_cached_applies_sort_no_instance(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        session = DeltaSession(
            _anchored_setting(), _anchored_source(20), cache=cache
        )
        with monkeypatch.context() as patched:
            _forbid_sorting(patched)
            for index in range(4):
                session.apply(
                    _swap(session, [index, index + 5], [f"z{index}"])
                )
        _check_rows(session)


# ----------------------------------------------------------------------
# Per-delta apply: work proportional to the edit
# ----------------------------------------------------------------------


def _swap(session, victims, fresh):
    """Delete ``victims`` (indexes into the sorted source), insert
    ``fresh`` new anchored rows."""
    r = RelationSymbol("R", 2)
    atoms = sorted(session.source)
    return SourceDelta(
        insertions=[
            Atom(r, (Const(f"{tag}a"), Const(f"{tag}b"))) for tag in fresh
        ],
        deletions=[atoms[index] for index in victims],
    )


_WORK = (
    "incremental.blocks_reminimized",
    "incremental.blocks_touched",
    "incremental.blocks_skipped",
    "incremental.blocks_replayed",
    "hom.candidates",
)


def _work_of(session, delta):
    obs.reset()
    session.apply(delta)
    return {name: obs.counter(name).value for name in _WORK}


def _check_memo(session):
    """The persistent block state describes the session's result."""
    memo = session._memo
    canonical = session.result.canonical_solution
    assert canonical == session._chase.reduct(session.setting.target_schema)
    assert memo.core == session.result.core_solution
    owned = [atom for atoms, _ in memo.blocks.values() for atom in atoms]
    assert len(owned) == len(set(owned))
    assert set(owned) == {atom for atom in canonical if atom.nulls}
    assert set(memo.block_of) == canonical.nulls()
    assert {
        frozenset(null for atom in atoms for null in atom.nulls)
        for atoms, _ in memo.blocks.values()
    } == set(null_blocks(canonical))
    assert memo.folded == sum(folded for _, folded in memo.blocks.values())
    rebuilt = {}
    for block_id, (atoms, _) in memo.blocks.items():
        for atom in atoms:
            assert all(memo.block_of[null] == block_id for null in atom.nulls)
            positions = tuple(
                i
                for i, value in enumerate(atom.args)
                if value not in atom.nulls
            )
            rebuilt.setdefault(atom.relation, {}).setdefault(
                positions, {}
            ).setdefault(tuple(atom.args[i] for i in positions), set()).add(
                block_id
            )
    assert memo.touch == rebuilt
    # No atom the core folded away is live in the ledger, even when the
    # apply deleted and re-derived it.
    live = set(session.ledger.live_facts())
    assert live & set(canonical) <= set(memo.core)


class TestPerDeltaApply:
    def test_work_does_not_grow_with_the_instance(self):
        """A 2+2 swap re-minimizes and touch-tests the same blocks at
        200 and at 2,000 rows; every other block is reused unvisited."""
        setting = _anchored_setting()
        work = {}
        for rows in (200, 2000):
            session = DeltaSession(setting, _anchored_source(rows))
            work[rows] = _work_of(session, _swap(session, (5, 7), ("x", "y")))
            blocks = 2 * rows  # anchored: an A/B block and a C block per row
            assert (
                work[rows]["incremental.blocks_reminimized"]
                + work[rows]["incremental.blocks_skipped"]
                + work[rows]["incremental.blocks_replayed"]
                == blocks
            )
            _check_memo(session)
            _assert_parity(session.result, setting, session.source)
        small, large = work[200], work[2000]
        for name in (
            "incremental.blocks_reminimized",
            "incremental.blocks_touched",
            "hom.candidates",
        ):
            assert small[name] == large[name], name
        assert small["incremental.blocks_reminimized"] == 4  # the new rows
        assert small["incremental.blocks_skipped"] == 2 * 200 - 4
        assert small["incremental.blocks_replayed"] == 0

    def test_insertion_that_is_a_fold_image_of_an_untouched_block(self):
        # E(b, ⊥) is unfoldable until M(b,'d') adds E(b,d): a ground
        # atom sharing no null with the block, found by its skeleton.
        setting = DataExchangeSetting.from_strings(
            Schema.of(M=2, N=1),
            Schema.of(E=2),
            ["N(x) -> exists z . E(x,z)", "M(x,y) -> E(x,y)"],
        )
        source = parse_instance("N('a'), N('b'), N('c')")
        session = DeltaSession(setting, source)
        assert len(session.result.core_solution) == 3
        work = _work_of(
            session, SourceDelta(insertions=parse_instance("M('b','d')"))
        )
        assert work["incremental.blocks_touched"] == 1
        assert work["incremental.blocks_reminimized"] == 1
        assert work["incremental.blocks_skipped"] == 2
        core = session.result.core_solution
        assert parse_instance("E('b','d')").issubset(core) and len(core) == 3
        _check_memo(session)
        _assert_parity(session.result, setting, session.source)

    def test_deletion_of_a_folded_blocks_image(self):
        setting = DataExchangeSetting.from_strings(
            Schema.of(M=2, N=1),
            Schema.of(E=2),
            ["N(x) -> exists z . E(x,z)", "M(x,y) -> E(x,y)"],
        )
        source = parse_instance("N('a'), N('b'), M('a','d'), M('b','e')")
        session = DeltaSession(setting, source)
        assert session._memo.folded == 2  # both E(x, ⊥) fold
        work = _work_of(
            session, SourceDelta(deletions=parse_instance("M('a','d')"))
        )
        # E(a,d) was the fold image of E(a, ⊥): that block unfolds.
        assert work["incremental.blocks_reminimized"] == 1
        assert work["incremental.blocks_replayed"] == 1
        core = session.result.core_solution
        assert len(core.atoms_with("E", 0, Const("a"))) == 1
        assert core.atoms_with("E", 0, Const("a")) != parse_instance(
            "E('a','d')"
        ).frozen()
        _check_memo(session)
        _assert_parity(session.result, setting, session.source)

    def test_cross_block_fold_falls_back(self):
        # E(a, ⊥0) folds onto E(a, ⊥1), whose null lives in the G block:
        # a fold across blocks, so the pass falls back to a full one.
        setting = DataExchangeSetting.from_strings(
            Schema.of(K=1, N=1),
            Schema.of(E=2, G=1),
            ["N(x) -> exists z . E(x,z)", "K(x) -> exists w . E(x,w) & G(w)"],
        )
        session = DeltaSession(setting, parse_instance("N('a'), N('b')"))
        work = _work_of(
            session, SourceDelta(insertions=parse_instance("K('a')"))
        )
        assert obs.counter("incremental.core_fallbacks").value == 1
        assert work["incremental.blocks_reminimized"] >= 1
        assert len(session._memo) == 0  # cleared: the next pass is full
        _assert_parity(session.result, setting, session.source)
        result = session.apply(
            SourceDelta(insertions=parse_instance("N('c')"))
        )
        _assert_parity(result, setting, session.source)

    def test_rederived_atoms_keep_the_ledger_exact(self):
        # F(a, ⊥) is derived through Kt(a) first; deleting K(a) deletes
        # it, and G(a, ⊥) re-derives it.  The canonical solution only
        # loses Kt(a), but the re-derived F(a, ⊥) is live again in the
        # ledger, so its folded block is re-minimized (and re-retracted).
        setting = DataExchangeSetting.from_strings(
            Schema.of(N=1, K=1, M=2),
            Schema.of(H=2, Kt=1, G=2, F=2),
            [
                "N(x) -> exists z . H(x,z)",
                "K(x) -> Kt(x)",
                "M(x,y) -> H(x,y)",
            ],
            [
                "H(x,z) & Kt(x) -> F(x,z)",
                "H(x,z) -> G(x,z)",
                "G(x,z) -> F(x,z)",
            ],
        )
        source = parse_instance("N('a'), K('a'), M('a','b')")
        session = DeltaSession(setting, source)
        assert session._memo.folded == 1
        work = _work_of(
            session, SourceDelta(deletions=parse_instance("K('a')"))
        )
        assert obs.counter("incremental.rederived").value > 0
        assert work["incremental.blocks_reminimized"] == 1
        assert session._memo.folded == 1
        _check_memo(session)
        _assert_parity(session.result, setting, session.source)

    @given(seed=_SETTING_SEEDS, script=_EDIT_SCRIPTS)
    @settings(max_examples=25, deadline=None)
    def test_memo_describes_every_result(self, seed, script):
        setting = random_weakly_acyclic_setting(seed, egd_probability=0.4)
        source = random_source_for(setting, seed=seed + 2)
        try:
            session = DeltaSession(setting, source)
        except Exception:
            return
        r_atoms = sorted(session.source)
        for step, (pick, insert_count, delete_count) in enumerate(script):
            atoms = sorted(session.source) or r_atoms
            template = atoms[pick % len(atoms)]
            insertions = [
                Atom(
                    template.relation,
                    tuple(
                        Const(f"k{step}_{i}_{j % 2}")
                        for j in range(template.relation.arity)
                    ),
                )
                for i in range(insert_count)
            ]
            deletions = [atoms[pick % len(atoms)]] if delete_count else []
            result = session.apply(
                SourceDelta(
                    insertions=Instance(insertions),
                    deletions=Instance(deletions),
                )
            )
            if result.cwa_solution_exists and len(session._memo):
                _check_memo(session)
            _assert_parity(result, setting, session.source)


def _scanned_cone(ledger, roots):
    """``downstream_cone`` as one forward scan over every step."""
    cone = set(roots)
    for step in ledger.steps:
        if step.kind == "tgd":
            if any(parent in cone for parent in step.parents):
                cone.update(step.added)
        elif step.kind == "egd":
            for before, after in step.rewrites:
                if before in cone:
                    cone.add(after)
    return cone


class TestDownstreamCone:
    @given(
        seed=_SETTING_SEEDS,
        picks=st.lists(st.integers(0, 10_000), max_size=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_indexed_cone_equals_a_full_scan(self, seed, picks):
        setting = random_weakly_acyclic_setting(seed, egd_probability=0.5)
        source = random_source_for(setting, seed=seed + 3)
        with recording() as ledger:
            solve(setting, source, engine="seminaive")
        facts = ledger.facts()
        if not facts:
            return
        roots = [facts[pick % len(facts)] for pick in picks]
        assert ledger.downstream_cone(roots) == _scanned_cone(ledger, roots)
        again = type(ledger).loads(ledger.dumps())
        assert again.downstream_cone(roots) == _scanned_cone(ledger, roots)

"""Ledger persistence at scale: ``dumps`` -> ``loads`` is lossless.

Satellite of ISSUE 10: the incremental path persists the provenance
ledger between processes (``repro solve --provenance`` then
``--incremental-from``), so serialization must preserve everything the
resume path reads -- the step sequence, the live-fact and chase-state
sets, the ``why()`` justification DAG, and the retraction/deletion
bookkeeping that ``why_not()`` reports.  Property-tested over randomly
generated chase runs including egd merges, core retractions, and delta
deletions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro import DeltaSession, SourceDelta
from repro.exchange.solve import solve
from repro.generators import (
    random_source_for,
    random_weakly_acyclic_setting,
)
from repro.obs.provenance import ProvenanceLedger, recording


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.reset()
    yield
    obs.reset()


def _recorded_solve(seed):
    """Chase + core a random setting under recording; None on failure."""
    setting = random_weakly_acyclic_setting(seed, egd_probability=0.5)
    source = random_source_for(setting, seed=seed + 1)
    ledger = ProvenanceLedger()
    try:
        with recording(ledger):
            solve(setting, source, engine="seminaive")
    except Exception:
        return None, None, None
    return setting, source, ledger


def _assert_equivalent(original, resumed):
    assert len(resumed) == len(original)
    assert resumed.facts() == original.facts()
    assert resumed.live_facts() == original.live_facts()
    assert resumed.chase_facts() == original.chase_facts()
    assert resumed.has_merges() == original.has_merges()
    assert resumed.fingerprint() == original.fingerprint()
    for kept, loaded in zip(original.steps, resumed.steps):
        assert loaded.kind == kept.kind
        assert loaded.added == kept.added
        assert loaded.parents == kept.parents
        assert loaded.dropped == kept.dropped
        assert loaded.merged == kept.merged
        assert loaded.rewrites == kept.rewrites
    for fact in original.facts():
        just = original.why(fact)
        back = resumed.why(fact)
        if just is None:
            assert back is None
        else:
            assert back is not None
            assert resumed.render_why(fact) == original.render_why(fact)
    # Retracted facts explain themselves identically after the trip.
    for fact in set(original.facts()) - set(original.live_facts()):
        assert resumed.why_not(fact) == original.why_not(fact)


class TestRoundTripProperties:
    @given(seed=st.integers(min_value=0, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_random_chase_runs_roundtrip(self, seed):
        setting, source, ledger = _recorded_solve(seed)
        if ledger is None or not len(ledger):
            return
        _assert_equivalent(ledger, ProvenanceLedger.loads(ledger.dumps()))

    @given(seed=st.integers(min_value=0, max_value=25))
    @settings(max_examples=15, deadline=None)
    def test_session_ledgers_roundtrip_with_deletions(self, seed):
        """Ledgers holding delta ``delete`` steps survive the trip too."""
        setting = random_weakly_acyclic_setting(seed, egd_probability=0.3)
        source = random_source_for(setting, seed=seed + 1)
        try:
            session = DeltaSession(setting, source)
        except Exception:
            return
        atoms = sorted(session.source)
        if not atoms:
            return
        try:
            session.apply(SourceDelta(deletions=[atoms[seed % len(atoms)]]))
        except Exception:
            return
        ledger = session.ledger
        _assert_equivalent(ledger, ProvenanceLedger.loads(ledger.dumps()))

    @given(seed=st.integers(min_value=0, max_value=25))
    @settings(max_examples=15, deadline=None)
    def test_session_ledgers_rebuild_the_consumer_index(self, seed):
        """The consumer index is rebuilt on load, not serialized: the
        deletion cones and changed facts of a loaded session ledger are
        the recorded ledger's."""
        setting = random_weakly_acyclic_setting(seed, egd_probability=0.3)
        source = random_source_for(setting, seed=seed + 1)
        try:
            session = DeltaSession(setting, source)
            atoms = sorted(session.source)
            if atoms:
                session.apply(
                    SourceDelta(deletions=[atoms[seed % len(atoms)]])
                )
        except Exception:
            return
        ledger = session.ledger
        loaded = ProvenanceLedger.loads(ledger.dumps())
        facts = ledger.facts()
        for roots in (atoms, atoms[: 1 + seed % 3], facts[seed % 4 :: 3]):
            assert loaded.downstream_cone(roots) == ledger.downstream_cone(
                roots
            )
        assert loaded.changed_facts(0) == ledger.changed_facts(0)
        assert loaded.changed_facts(len(ledger) // 2) == ledger.changed_facts(
            len(ledger) // 2
        )

    @given(seed=st.integers(min_value=0, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_is_idempotent(self, seed):
        _, _, ledger = _recorded_solve(seed)
        if ledger is None:
            return
        once = ledger.dumps()
        assert ProvenanceLedger.loads(once).dumps() == once


class TestRoundTripResume:
    @given(seed=st.integers(min_value=0, max_value=25))
    @settings(max_examples=10, deadline=None)
    def test_resumed_ledger_supports_from_ledger(self, seed):
        """The persisted form is good enough to seed a DeltaSession."""
        setting, source, ledger = _recorded_solve(seed)
        if ledger is None or not len(ledger):
            return
        resumed = ProvenanceLedger.loads(ledger.dumps())
        session = DeltaSession.from_ledger(setting, source, resumed)
        batch = solve(setting, source, engine="seminaive")
        assert (
            session.result.cwa_solution_exists == batch.cwa_solution_exists
        )

"""Delta sessions: solve once, then re-solve small edits incrementally.

A :class:`DeltaSession` runs one from-scratch semi-naive solve and keeps
three artifacts alive between edits:

* the **chase state** (source ∪ derived target facts),
* the **provenance ledger** -- a fact-level derivation DAG recording,
  for every fact, which firing produced it from which parents, and
* the **block memo** -- the maintained core with its Gaifman blocks,
  their minimization outcomes and the touch index
  (:mod:`repro.incremental.core`).

:meth:`apply` then maintains the CWA-solution under a
:class:`~repro.incremental.delta.SourceDelta` without re-chasing:

* **Deletions** retract the deleted atoms' downstream derivation cone
  (DRed-style over-deletion via
  :meth:`~repro.obs.provenance.ProvenanceLedger.downstream_cone`), then
  a continuation chase re-derives the cone members that have surviving
  alternative justifications.
* **Insertions** seed the semi-naive engine's per-tgd delta joins with
  just the inserted atoms (plus the re-derivation frontier), so trigger
  discovery only inspects matches that can involve the edit.
* The **core** is re-minimized blockwise, only over the blocks the
  edit reaches; the ledger steps the apply recorded name the changed
  atoms, so no pass over the whole instance finds them.

Every apply hands out fresh snapshots: the result's source, canonical
solution and core are copy-on-write copies (:meth:`Instance.copy`), which
cost the atom set and share the index buckets.  With a cache, the
session keeps the canonical solution's atoms in sorted order across
applies, so an entry is written by joining each atom's cached JSON
text, with no sort and no encoder run over the instances.  The rest of
its work is proportional to the edit.

The continuation chase is a valid (semi-naive standard) chase of the new
source from an intermediate state every from-scratch chase can reach, so
its result is hom-equivalent to a from-scratch solve: canonical
solutions may differ in null naming, and the cores have identical fp/v1
canonical fingerprints.

**Exactness over speed**: whenever the incremental argument does not
apply, the session transparently falls back to a from-scratch re-solve
(``incremental.full_fallbacks``):

* some s-t tgd has a first-order premise -- FO premises may contain
  negation, so old firings can be invalidated by *insertions* and new
  firings enabled by *deletions*; neither direction is maintainable
  from the ledger;
* the delta deletes atoms and the ledger has egd merges -- merge steps
  do not carry the premise facts that triggered them, so deletion cones
  through merges cannot be computed exactly;
* the previous apply failed or diverged (no usable chase state).

Egd-carrying settings remain incrementally maintainable for
insertion-only deltas, and any merges the continuation itself performs
are recorded, flipping the session into the fallback regime for later
deletions.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import List, Optional, Sequence, Set, Tuple, Union

from ..chase.result import ChaseOutcome, ChaseStatus
from ..chase.loop import DEFAULT_MAX_STEPS, chase_rounds
from ..chase.seminaive import DeltaSource, seminaive_chase
from ..core.atoms import Atom
from ..core.errors import ChaseDivergence, ReproError
from ..core.instance import Instance
from ..core.terms import NullFactory
from ..exchange.setting import DataExchangeSetting
from ..exchange.solve import ExchangeResult, _cache_entry
from ..obs import counter, span
from ..obs.provenance import ProvenanceLedger, recording
from .core import BlockMemo, incremental_core
from .delta import SourceDelta


class DeltaSession:
    """A solved exchange that accepts source edits.

    ``session = DeltaSession(setting, source)`` solves from scratch;
    each ``session.apply(delta)`` returns the :class:`ExchangeResult`
    for the edited source.  ``session.result`` always holds the latest
    result and ``session.source`` the latest source.

    ``cache`` (a :class:`repro.engine.ResultCache`) receives every
    result, a resumed one (:meth:`from_ledger`) included, under the
    same content-addressed key a batch ``solve`` (semi-naive, the
    default engine) of the edited source would use, so later batch
    solves hit.  ``ledger`` lets the caller supply the
    :class:`ProvenanceLedger` to record into (e.g. the CLI's
    ``--provenance`` writer); by default the session owns a fresh one.
    """

    def __init__(
        self,
        setting: DataExchangeSetting,
        source: Instance,
        *,
        max_steps: int = DEFAULT_MAX_STEPS,
        cache=None,
        ledger: Optional[ProvenanceLedger] = None,
    ):
        self.setting = setting
        self.max_steps = max_steps
        self.cache = cache
        self.ledger = ledger if ledger is not None else ProvenanceLedger()
        if len(self.ledger):
            raise ReproError(
                "DeltaSession needs an empty ledger to record into; "
                "use DeltaSession.from_ledger to resume a persisted one"
            )
        self._analyze()
        setting.validate_source(source)
        self.source = source.copy()
        self._memo = BlockMemo()
        self._factory = NullFactory.above(source.active_domain())
        # With a cache: the canonical solution's atoms in sort-key order,
        # kept by _finish (None without a cache or a solution).
        self._canonical_rows: Optional[List[Atom]] = None
        self._solve_initial()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _analyze(self) -> None:
        """Static per-setting facts the apply path consults."""
        setting = self.setting
        self._dependencies = list(setting.all_dependencies)
        # Every (relation, position) of the chase state, for index probes.
        self._positions = [
            (relation.name, position)
            for schema in (setting.source_schema, setting.target_schema)
            for relation in schema
            for position in range(relation.arity)
        ]
        tgds = [d for d in self._dependencies if d.is_tgd]
        self._fo_premises = any(t.premise_atoms is None for t in tgds)
        # Tgds with a frontier-free conclusion atom derive facts sharing
        # no value with their premises; value-overlap seeding misses
        # their re-derivations, so their premise relations seed fully.
        self._frontier_free = []
        for tgd in tgds:
            if tgd.premise_atoms is None:
                continue
            frontier = set(tgd.frontier)
            if any(
                all(arg not in frontier for arg in atom.args)
                for atom in tgd.conclusion_atoms
            ):
                self._frontier_free.append(tgd)

    def _solve_initial(self) -> ExchangeResult:
        with span("incremental.solve_initial"):
            with recording(self.ledger):
                outcome = seminaive_chase(
                    self.source,
                    self._dependencies,
                    max_steps=self.max_steps,
                    null_factory=self._factory,
                )
            return self._finish(outcome, changed=None)

    @classmethod
    def from_ledger(
        cls,
        setting: DataExchangeSetting,
        source: Instance,
        persisted: Union[ProvenanceLedger, dict, str],
        *,
        max_steps: int = DEFAULT_MAX_STEPS,
        cache=None,
        ledger: Optional[ProvenanceLedger] = None,
    ) -> "DeltaSession":
        """Resume a session from a persisted ledger without re-chasing.

        ``persisted`` is a :class:`ProvenanceLedger`, its
        ``repro.obs/prov/v1`` payload dict, or its JSON text -- e.g. the
        file a previous ``solve --provenance`` run wrote.  The source
        reduct of its chase state is validated against ``source``.  The
        recorded chase state is then *verified* by one continuation
        chase round: a complete ledger passes through untouched, while a
        ledger persisted mid-run is chased to fixpoint and one from a
        failing solve reports its failure again instead of resuming a
        bogus solution.  ``ledger`` optionally names the (empty) ledger
        object to ingest into and record future applies into.
        """
        if isinstance(persisted, ProvenanceLedger) and ledger is None:
            target = persisted
        else:
            target = ledger if ledger is not None else ProvenanceLedger()
            payload = (
                persisted.to_payload()
                if isinstance(persisted, ProvenanceLedger)
                else persisted
            )
            if isinstance(payload, str):
                import json

                try:
                    payload = json.loads(payload)
                except json.JSONDecodeError as error:
                    raise ReproError(
                        f"invalid provenance JSON: {error}"
                    ) from None
            target.ingest(payload)

        session = cls.__new__(cls)
        session.setting = setting
        session.max_steps = max_steps
        session.cache = cache
        session.ledger = target
        session._analyze()
        setting.validate_source(source)
        session.source = source.copy()
        session._memo = BlockMemo()
        session._canonical_rows = None

        chase = Instance(target.chase_facts())
        if chase.reduct(setting.source_schema) != source:
            raise ReproError(
                "the persisted ledger does not describe this source "
                "instance: its chase state has a different source reduct"
            )
        session._chase = chase
        session._factory = NullFactory.above(
            value for atom in target.facts() for value in atom.args
        )
        session._failed = False
        # Verify the recorded state: with a complete, successful ledger
        # this matching pass fires nothing (every trigger is satisfied);
        # a partial ledger is chased to fixpoint and a failing one fails
        # here rather than masquerading as solved.
        with recording(target):
            outcome = seminaive_chase(
                chase,
                session._dependencies,
                max_steps=max_steps,
                null_factory=session._factory,
                initial_delta=sorted(chase),
            )
        if outcome.status is not ChaseStatus.SUCCESS or outcome.steps:
            session._finish(outcome, changed=None)
            return session
        session._chase = outcome.instance
        session._canonical = chase.reduct(setting.target_schema)
        if cache is not None:
            session._canonical_rows = session._canonical.sorted_atoms()
        # A fresh memo: a from-scratch core pass.
        core_instance, _ = incremental_core(
            session._canonical, (), session._memo
        )
        session.result = ExchangeResult(
            setting,
            session.source.copy(),
            session._canonical.copy(),
            core_instance,
            0,
        )
        session._store()
        return session

    # ------------------------------------------------------------------
    # Applying edits
    # ------------------------------------------------------------------

    def apply(self, delta: SourceDelta) -> ExchangeResult:
        """The :class:`ExchangeResult` for the edited source.

        The core of the returned result has the same fp/v1 canonical
        fingerprint as a from-scratch solve of the edited source; the
        canonical solution is hom-equivalent (null naming may differ).
        """
        counter("incremental.applies").inc()
        with span("incremental.apply"):
            insertions, deletions = delta.effective(self.source)
            if not insertions and not deletions:
                return self.result
            # The session's source was valid; only the insertions are new.
            self.setting.validate_source(Instance(insertions))
            for atom in deletions:
                self.source.discard(atom)
            for atom in insertions:
                self.source.add(atom)
            if self._needs_full(deletions):
                counter("incremental.full_fallbacks").inc()
                return self._full_resolve()

            # The chase state is edited in place from here on; until
            # _finish succeeds, an interrupted apply leaves it unusable.
            self._failed = True
            mark = len(self.ledger)
            cone: Tuple[Atom, ...] = ()
            seeds: Set[Atom] = set()
            if deletions:
                over = self.ledger.downstream_cone(deletions)
                cone = tuple(sorted(over, key=Atom.sort_key))
                removed = [a for a in cone if self._chase.discard(a)]
                self.ledger.record_deletion("incremental", removed)
                counter("incremental.retracted").inc(len(removed))
                seeds = self._rederivation_seeds(cone)
            for atom in insertions:
                self._chase.add(atom)
            initial = sorted(seeds.union(insertions), key=Atom.sort_key)
            # The semi-naive chase of the session's own chase state, in
            # place: ``seminaive_chase`` would first copy all of it.
            with recording(self.ledger):
                outcome = chase_rounds(
                    "seminaive",
                    "semi-naive chase",
                    self._chase,
                    self._dependencies,
                    lambda tgds, current: DeltaSource(tgds, current, initial),
                    max_steps=self.max_steps,
                    null_factory=self._factory,
                )
            counter("incremental.delta_rounds").inc(outcome.rounds)
            if cone:
                rederived = sum(
                    1 for atom in cone if atom in outcome.instance
                )
                counter("incremental.rederived").inc(rederived)
            changed = self.ledger.changed_facts(mark)
            return self._finish(outcome, changed=changed)

    def _needs_full(self, deletions: Sequence[Atom]) -> bool:
        if self._failed:
            return True  # no usable chase state to continue from
        if self._fo_premises:
            return True  # FO premises are non-monotone in general
        if deletions and self.ledger.has_merges():
            return True  # deletion cones through merges are inexact
        return False

    def _full_resolve(self) -> ExchangeResult:
        """From-scratch re-solve; resets ledger, memo, and null factory."""
        with span("incremental.full_resolve"):
            self.ledger.clear()
            self._memo.clear()
            self._factory = NullFactory.above(self.source.active_domain())
            return self._solve_initial()

    def _rederivation_seeds(self, cone: Sequence[Atom]) -> Set[Atom]:
        """Surviving atoms that can participate in re-deriving the cone.

        A firing that re-derives a cone member binds its frontier from
        premise facts, so some premise fact shares a value with the
        conclusion -- seeding every survivor sharing a value with the
        cone (transitively closed by the chase's own delta rounds)
        reaches all such firings.  The exception is conclusion atoms
        without frontier variables; for tgds that have one, all atoms of
        their premise relations are seeded whenever the cone touches
        their conclusion relations.

        The survivors are found through the chase state's position index,
        one probe per cone value and relation position.
        """
        values = set()
        for atom in cone:
            values.update(atom.args)
        seeds: Set[Atom] = set()
        for value in values:
            for name, position in self._positions:
                seeds.update(self._chase.probe_position(name, position, value))
        if self._frontier_free:
            cone_relations = {atom.relation for atom in cone}
            for tgd in self._frontier_free:
                if cone_relations & tgd.conclusion_relations():
                    for relation in tgd.premise_relations():
                        seeds.update(self._chase.probe_relation(relation.name))
        return seeds

    # ------------------------------------------------------------------
    # Shared tail: core, result, cache
    # ------------------------------------------------------------------

    def _finish(
        self, outcome: ChaseOutcome, *, changed: Optional[Set[Atom]]
    ) -> ExchangeResult:
        """Core, result and cache entry after a chase.

        ``changed`` holds the chase facts the apply's ledger steps
        touched; None (a from-scratch chase) recomputes the core from
        scratch.
        """
        if outcome.status is ChaseStatus.DIVERGED:
            self._failed = True  # poisoned: next apply re-solves fully
            raise ChaseDivergence(outcome.steps, outcome.reason)
        self._chase = outcome.instance
        if outcome.status is ChaseStatus.FAILURE:
            self._failed = True
            self._memo.clear()
            self._canonical_rows = None
            self.result = ExchangeResult(
                self.setting, self.source.copy(), None, None, outcome.steps
            )
        else:
            self._failed = False
            target = self.setting.target_schema
            if changed is None:
                self._memo.clear()
                self._canonical = self._chase.reduct(target)
                if self.cache is not None:
                    self._canonical_rows = self._canonical.sorted_atoms()
                edit = []
            else:
                # The canonical solution is the chase state's target part:
                # keep it, and with a cache its sorted rows, current from
                # the changed atoms alone.
                edit = sorted(
                    (atom for atom in changed if atom.relation in target),
                    key=Atom.sort_key,
                )
                rows = self._canonical_rows
                for atom in edit:
                    if atom in self._chase:
                        if self._canonical.add(atom) and rows is not None:
                            insort(rows, atom)
                    elif self._canonical.discard(atom) and rows is not None:
                        del rows[bisect_left(rows, atom)]
            with recording(self.ledger):
                core_instance, _ = incremental_core(
                    self._canonical, edit, self._memo
                )
            self.result = ExchangeResult(
                self.setting,
                self.source.copy(),
                self._canonical.copy(),
                core_instance,
                outcome.steps,
            )
        self._store()
        return self.result

    def _store(self) -> None:
        if self.cache is None:
            return
        from ..engine.fingerprint import solve_key  # lazy: engine is optional

        key = solve_key(
            self.setting,
            self.source,
            max_steps=self.max_steps,
            engine="seminaive",
            core_algorithm="blockwise",
        )
        self.cache.put(
            "solve", key, *_cache_entry(self.result, self._canonical_rows)
        )

"""One firing step, one observer bundle, one round loop for every engine.

A trigger is a justification's pair (ū, v̄) (Section 4 of the paper),
held as one value tuple ``ū‖v̄`` ordered ``tgd.frontier +
tgd.premise_only`` (:meth:`Tgd.premise_bindings`).  The paper's
standard chase (Remark 4.3) and α-chase (Definitions 4.1 and 4.2)
share their firing step: add ``ψ[ū, w̄]`` for a trigger's ū and a
witness tuple w̄.  Only the applicability check differs (``I ⊭ ∃z̄ ψ``
versus ``I ⊭ ψ[ū, ᾱ]``) and, for the batched engines, where a pass
finds its triggers.  No substitution is built per trigger; one is
built per firing only when a provenance ledger or the trace needs it.

:class:`ChaseRun` is the observer bundle every engine fires, merges
and finishes through: the working copy, the step and null counts, the
``chase.*`` counters and gauges, the provenance ledger, the trace,
per-dependency attribution and the heartbeat.  :func:`chase_rounds` is
the egd-fixpoint → tgd-pass round loop of the two batched engines; its
only parameter is the :class:`TriggerSource` that feeds each pass.
The loop checks the conclusion of each frontier tuple ū at most once
per run (:class:`SatisfiedTriggers`, keyed on ``binding[:len(frontier)]``).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom, Substitution
from ..core.instance import Instance
from ..core.terms import Null, NullFactory, Value
from ..dependencies.base import Dependency, split_dependencies
from ..dependencies.egd import Egd
from ..dependencies.tgd import Tgd
from ..obs import attribution, counter, gauge, span, span_stats
from ..obs.provenance import active_ledger
from .result import ChaseOutcome, ChaseStatus, ChaseStep

#: Step budget of the batched engines (standard and semi-naive).
DEFAULT_MAX_STEPS = 200_000


class ChaseRun:
    """The observer bundle of one chase run.

    Owns the working instance and every observer hook, so an engine
    only decides *which* tgd to fire with *which* witnesses and which
    egd to apply.  The run works on ``instance`` in place: the engines
    hand it a private copy of their input, and a caller continuing a
    chase of its own state (the incremental session) hands it that
    state.  ``engine`` names the run in ledger ``via`` fields and
    heartbeat records; ``label`` names it in budget reasons.

    ``fresh_witnesses`` is False for the α-chase, whose witnesses need
    not be fresh: its created nulls are counted by set difference
    against the input when the run finishes, not per firing.
    """

    def __init__(
        self,
        engine: str,
        label: str,
        instance: Instance,
        *,
        max_steps: int = DEFAULT_MAX_STEPS,
        trace: bool = False,
        fresh_witnesses: bool = True,
    ):
        self.engine = engine
        self.label = label
        self.max_steps = max_steps
        self.trace = trace
        self._initial_nulls = (
            None if fresh_witnesses else set(instance.nulls())
        )
        self.current = instance
        self.steps = 0
        self.nulls_created = 0
        #: Rounds of :func:`chase_rounds`; the α-chase reports 0.
        self.rounds = 0
        self.log: List[ChaseStep] = []
        self.started = time.perf_counter()
        self._firings = counter("chase.tgd_firings")
        self._merges = counter("chase.egd_merges")
        self._nulls = counter("chase.nulls_created")
        self.ledger = active_ledger()  # None by default: recording is opt-in
        if self.ledger is not None:
            self.ledger.record_source(self.current)
        self.peak_atoms = len(self.current)
        # Per-dependency attribution is opt-in; the flag is read once
        # per run so the default path pays one bool test per record.
        self.attributing = attribution.enabled()

    def fire(
        self,
        tgd: Tgd,
        binding: Tuple[Value, ...],
        witnesses: Sequence[Value],
    ) -> List[Atom]:
        """Add ``ψ[ū, w̄]`` for the trigger ``binding = ū‖v̄`` and notify
        every observer; returns the new atoms."""
        added = tgd.conclusion_atoms_at(binding[: len(tgd.frontier)], witnesses)
        fresh = [atom for atom in added if self.current.add(atom)]
        self.steps += 1
        self._firings.inc()
        if self._initial_nulls is None:
            self.nulls_created += len(witnesses)
            self._nulls.inc(len(witnesses))
        if self.ledger is not None:
            premise_match = Substitution(dict(zip(tgd.binding_order, binding)))
            self.ledger.record_firing(
                self.engine, tgd, premise_match, fresh, witnesses
            )
        if self.trace:
            named = tuple(
                (variable.name, value)
                for variable, value in zip(tgd.binding_order, binding)
            )
            self.log.append(ChaseStep("tgd", tgd, binding=named, added=fresh))
        return fresh

    def merge(self, egd: Egd, old: Value, new: Value) -> None:
        """Apply one egd step ``old := new`` and notify every observer."""
        self.current.replace_value(old, new)
        self.steps += 1
        self._merges.inc()
        if self.ledger is not None:
            self.ledger.record_merge(self.engine, egd, old, new)
        if self.trace:
            self.log.append(ChaseStep("egd", egd, merged=(old, new)))

    def clock(self) -> float:
        """Start time of one attributed observation (0.0 when off)."""
        return time.perf_counter() if self.attributing else 0.0

    def attribute(
        self,
        dependency: Dependency,
        round_index: int,
        started: Optional[float] = None,
        **counts: int,
    ) -> None:
        """One attribution row for ``dependency``; no-op when off."""
        if self.attributing:
            attribution.record_dependency(
                attribution.dep_label(dependency),
                round_index=round_index,
                seconds=0.0
                if started is None
                else time.perf_counter() - started,
                **counts,
            )

    def created(self) -> int:
        """Nulls invented so far."""
        if self._initial_nulls is None:
            return self.nulls_created
        return len(set(self.current.nulls()) - self._initial_nulls)

    def beat(self, round_index: int) -> None:
        """Round boundary: track the peak size and emit a heartbeat."""
        self.peak_atoms = max(self.peak_atoms, len(self.current))
        if attribution.heartbeat() is not None:
            attribution.beat(
                engine=self.engine,
                round_index=round_index,
                steps=self.steps,
                instance_size=len(self.current),
                nulls_created=self.created(),
            )

    def size_gauges(self) -> None:
        gauge("chase.peak_atoms").set(max(self.peak_atoms, len(self.current)))
        gauge("chase.instance_size").set(len(self.current))

    def finish(self, status: ChaseStatus, reason: str = "") -> ChaseOutcome:
        """The single exit path: every verdict carries the same stats."""
        created = self.created()
        if self._initial_nulls is not None:
            self._nulls.inc(created)
        gauge("chase.steps_to_fixpoint").set(self.steps)
        gauge("instance.nulls").set(self.current.null_count())
        self.size_gauges()
        return ChaseOutcome(
            status,
            self.current,
            self.steps,
            self.log,
            reason,
            elapsed_seconds=time.perf_counter() - self.started,
            nulls_created=created,
            rounds=self.rounds,
        )

    def out_of_budget(self) -> ChaseOutcome:
        return self.finish(
            ChaseStatus.DIVERGED,
            f"{self.label} exceeded {self.max_steps} steps",
        )


class TriggerSource:
    """Where a batched pass finds its triggers: a full scan by default.

    A trigger is a premise binding ``ū‖v̄`` (:meth:`Tgd.premise_bindings`).
    Each pass re-enumerates every premise binding, and a pass that fires
    nothing ends the chase -- the standard engine.  Subclasses narrow
    the bindings (the semi-naive delta joins) and decide when the
    chase is done.
    """

    def __init__(self, tgds: Sequence[Tgd], instance: Instance):
        pass

    def pending(self) -> bool:
        """Checked after each egd fixpoint: is there a pass to run?"""
        return True

    def matches(
        self, tgd: Tgd, instance: Instance
    ) -> Iterable[Tuple[Value, ...]]:
        """The bindings ``ū‖v̄`` this pass tries for ``tgd``."""
        return tgd.premise_bindings(instance)

    def added(self, atoms: List[Atom]) -> None:
        """Atoms one firing added to the instance."""

    def rewritten(self, instance: Instance, value: Value) -> None:
        """An egd merge made ``value`` the surviving value."""

    def advance(self, fired: bool) -> bool:
        """End of a pass; False ends the chase."""
        return fired


class SatisfiedTriggers:
    """Per-run memo of frontier tuples whose tgd conclusion holds.

    :meth:`Tgd.conclusion_holds_at` reads only the frontier tuple ū of a
    trigger ``ū‖v̄``, so one set of frontier tuples per tgd records every
    ū with ``I ⊨ ∃z̄ ψ[ū, z̄]`` known.  A tuple enters when its check
    succeeds or right after the loop fires it.  Firings only add atoms,
    so a recorded tuple stays satisfied; an egd merge ``old := new``
    maps every witness to a witness and leaves tuples without ``old``
    unchanged, so :meth:`forget` drops exactly the tuples holding
    ``old``.  Merges only ever replace nulls (footnote 4), so tuples
    are indexed by the nulls they hold.
    """

    def __init__(self, tgds: Sequence[Tgd]):
        #: One set of frontier tuples per tgd, in ``tgds`` order.
        self.per_tgd: List[Set[Tuple[Value, ...]]] = [set() for _ in tgds]
        self._by_null: Dict[Null, List[Tuple[Set, Tuple[Value, ...]]]] = {}

    def add(self, satisfied: Set[Tuple[Value, ...]], key: Tuple[Value, ...]) -> None:
        satisfied.add(key)
        for value in key:
            if value.__class__ is Null:
                self._by_null.setdefault(value, []).append((satisfied, key))

    def forget(self, old: Value) -> None:
        """An egd merge replaced ``old``: drop the tuples that held it."""
        for satisfied, key in self._by_null.pop(old, ()):
            satisfied.discard(key)


def chase_rounds(
    engine: str,
    label: str,
    instance: Instance,
    dependencies: Sequence[Dependency],
    trigger_source: Callable[[Sequence[Tgd], Instance], TriggerSource],
    *,
    max_steps: int,
    trace: bool,
    null_factory: Optional[NullFactory],
) -> ChaseOutcome:
    """The batched standard chase: rounds of egd fixpoint, then tgd pass.

    Egds take priority over tgds and dependencies are tried in the
    given order, which makes runs deterministic.  A pass fires every
    trigger the trigger source yields that is still unsatisfied at its
    own firing time -- each firing is checked against the current
    instance, so this is a valid standard chase sequence.  A trigger
    is a binding ``ū‖v̄``; one whose frontier tuple ū (its first
    ``len(tgd.frontier)`` values) :class:`SatisfiedTriggers` already
    holds is skipped without the check, which would succeed.
    ``trigger_source`` builds that source from the tgds and the working
    instance, which is ``instance`` itself, chased in place.
    """
    tgds, egds = split_dependencies(list(dependencies))
    run = ChaseRun(engine, label, instance, max_steps=max_steps, trace=trace)
    current = run.current
    factory = null_factory or current.null_factory()
    feed = trigger_source(tgds, current)
    memo = SatisfiedTriggers(tgds)
    with span(f"chase.{engine}"):
        # Phase timing only (egds vs tgds), recorded once per round -- a
        # span per dependency pass costs enough relative to the pass
        # itself to violate the telemetry overhead budget.
        egd_stats = span_stats("egds") if egds else None
        tgd_stats = span_stats("tgds")
        while True:
            if egd_stats is not None:
                pass_started = time.perf_counter()
                try:
                    while True:
                        if run.steps >= max_steps:
                            return run.out_of_budget()
                        for egd in egds:
                            started = run.clock()
                            violation = egd.first_violation(current)
                            if violation is None:
                                run.attribute(egd, run.rounds, started)
                                continue
                            direction = Egd.merge_direction(*violation)
                            if direction is None:
                                return run.finish(
                                    ChaseStatus.FAILURE,
                                    "an egd equated two distinct constants",
                                )
                            old, new = direction
                            run.merge(egd, old, new)
                            memo.forget(old)
                            run.attribute(
                                egd, run.rounds, started, triggers=1, merges=1
                            )
                            feed.rewritten(current, new)
                            break
                        else:  # no egd is violated: fixpoint
                            break
                finally:
                    egd_stats.record(time.perf_counter() - pass_started)
            elif run.steps >= max_steps:
                return run.out_of_budget()

            if not feed.pending():
                return run.finish(ChaseStatus.SUCCESS)

            fired_any = False
            pass_started = time.perf_counter()
            try:
                for tgd, satisfied in zip(tgds, memo.per_tgd):
                    started = run.clock()
                    triggers = list(feed.matches(tgd, current))
                    width = len(tgd.frontier)
                    firings = 0
                    for binding in triggers:
                        if run.steps >= max_steps:
                            return run.out_of_budget()
                        key = binding[:width]
                        if key in satisfied:
                            continue
                        if not tgd.conclusion_holds_at(current, key):
                            witnesses = factory.fresh_tuple(len(tgd.existential))
                            feed.added(run.fire(tgd, binding, witnesses))
                            firings += 1
                        memo.add(satisfied, key)
                    if triggers:
                        run.attribute(
                            tgd,
                            run.rounds,
                            started,
                            triggers=len(triggers),
                            firings=firings,
                            nulls=firings * len(tgd.existential),
                        )
                    fired_any = fired_any or firings > 0
            finally:
                tgd_stats.record(time.perf_counter() - pass_started)

            run.beat(run.rounds)
            run.rounds += 1
            if not feed.advance(fired_any):
                return run.finish(ChaseStatus.SUCCESS)

"""Semi-naive standard chase: delta-driven trigger discovery.

The batched engine in :mod:`repro.chase.standard` re-enumerates *all*
premise matches on every pass; on long chases most of those matches are
old news.  This engine applies the classic semi-naive idea from Datalog
evaluation: a premise match can be *new* only if it uses at least one
atom added (or rewritten) since the previous pass, so each pass seeds
the matcher from the delta:

    for every premise atom position p of a tgd,
        for every delta atom unifiable with p,
            complete the match against the full instance.

Egd applications rewrite atoms; rewritten atoms re-enter the delta so
matches they enable are found again.  A later merge of the same egd
fixpoint can rewrite them once more, so each pass first drops the delta
atoms that are no longer in the instance: a stale copy would seed
matches for premises the instance no longer satisfies.  The engine
produces a valid standard chase sequence (every firing is checked
against the current instance), hence for weakly acyclic settings its
result is a canonical universal solution, hom-equivalent to the
batched engine's.

Both engines run the one round loop of :mod:`repro.chase.loop`; this
module only supplies its trigger source, :class:`DeltaSource`.  The
benchmark module ``bench_seminaive.py`` races the two.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.terms import NullFactory, Value
from ..dependencies.base import Dependency
from ..dependencies.tgd import Tgd
from ..logic.matching import match_tuples
from .loop import DEFAULT_MAX_STEPS, TriggerSource, chase_rounds
from .result import ChaseOutcome


class _Seed:
    """One premise position of a tgd's delta join, compiled once per run.

    ``pattern`` is the premise atom a delta fact is unified with and
    ``rest`` the premise without it.  The same ``rest`` tuple is reused
    on every pass, so its completion join compiles once and every later
    pass is a pure plan-cache hit (keyed by ``pattern``'s variables).
    """

    __slots__ = ("relation", "rest", "variables", "reads", "checks")

    def __init__(self, pattern: Atom, rest: Tuple[Atom, ...]):
        self.relation = pattern.relation
        self.rest = rest
        first: Dict = {}
        checks: List[Tuple[int, object]] = []
        for position, arg in enumerate(pattern.args):
            if isinstance(arg, Value):
                checks.append((position, arg))
            elif arg in first:
                checks.append((position, first[arg]))
            else:
                first[arg] = position
        #: ``pattern``'s variables sorted by name: the completion join's
        #: pre-bound variables, in the order its plan seeds them.
        self.variables = tuple(sorted(first, key=lambda v: v.name))
        #: The position of each of ``variables`` in a unified fact.
        self.reads = tuple(first[variable] for variable in self.variables)
        #: ``(position, constant)`` and ``(position, earlier position)``
        #: equalities a fact must meet to unify with ``pattern``.
        self.checks = tuple(checks)

    def unify(self, fact: Atom) -> Optional[Tuple[Value, ...]]:
        """The values of :attr:`variables` under ``fact``, or None."""
        if fact.relation != self.relation:
            return None
        args = fact.args
        for position, expected in self.checks:
            if args[position] != (
                args[expected] if expected.__class__ is int else expected
            ):
                return None
        return tuple([args[position] for position in self.reads])


def _seed_decomposition(tgd: Tgd) -> Optional[Tuple[_Seed, ...]]:
    """Per-tgd delta-join plan, computed once per chase run: one
    :class:`_Seed` per premise-atom position.  Returns None for FO
    premises, which have no atom list to seed from."""
    if tgd.premise_atoms is None:
        return None
    atoms = tgd.premise_atoms
    return tuple(
        _Seed(atoms[i], atoms[:i] + atoms[i + 1 :]) for i in range(len(atoms))
    )


class DeltaSource(TriggerSource):
    """Semi-naive triggers: premise matches that use a delta atom.

    The delta of a pass is what the previous pass added plus every atom
    an egd merge rewrote since, less the atoms a merge has rewritten
    away again; the chase ends when it is empty.
    """

    def __init__(
        self,
        tgds: Sequence[Tgd],
        instance: Instance,
        initial_delta: Optional[Sequence[Atom]] = None,
    ):
        # Delta-join decompositions, once per run: each (seed, rest) pair
        # keeps its identity across passes so completions hit the plan
        # cache.
        self._seeds = {id(tgd): _seed_decomposition(tgd) for tgd in tgds}
        self._instance = instance
        self._delta: List[Atom] = (
            list(instance)
            if initial_delta is None
            else [item for item in initial_delta if item in instance]
        )
        self._next: List[Atom] = []

    def pending(self) -> bool:
        # Runs after each egd fixpoint, right before the pass.
        self._delta = [item for item in self._delta if item in self._instance]
        return bool(self._delta)

    def matches(
        self, tgd: Tgd, instance: Instance
    ) -> Iterable[Tuple[Value, ...]]:
        """Bindings ``ū‖v̄`` of ``tgd`` whose match uses a delta atom.

        Deduplicates across seed positions (a match touching two delta
        atoms would otherwise be reported twice); the binding itself is
        the dedup key.
        """
        if tgd.premise_atoms is None:
            # FO premise (s-t tgd): fires only off source atoms; if the
            # delta contains any premise relation, fall back to a full
            # scan.
            relations = {r.name for r in tgd.premise_relations()}
            if any(fact.relation.name in relations for fact in self._delta):
                yield from tgd.premise_bindings(instance)
            return
        seen: Set[Tuple[Value, ...]] = set()
        order = tgd.binding_order
        for seed in self._seeds[id(tgd)]:
            for fact in self._delta:
                values = seed.unify(fact)
                if values is None:
                    continue
                for binding in match_tuples(
                    seed.rest,
                    instance,
                    order,
                    prebound=seed.variables,
                    values=values,
                ):
                    if binding not in seen:
                        seen.add(binding)
                        yield binding

    def added(self, atoms: List[Atom]) -> None:
        self._next.extend(atoms)

    def rewritten(self, instance: Instance, value: Value) -> None:
        # Every atom holding the surviving value: a superset of the
        # atoms whose shape changed, which is what delta correctness
        # needs.
        self._delta.extend(instance.atoms_containing(value))

    def advance(self, fired: bool) -> bool:
        self._delta, self._next = self._next, []
        return True


def seminaive_chase(
    instance: Instance,
    dependencies: Sequence[Dependency],
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    trace: bool = False,
    null_factory: Optional[NullFactory] = None,
    initial_delta: Optional[Sequence[Atom]] = None,
) -> ChaseOutcome:
    """Standard chase with semi-naive trigger discovery.

    Same contract as :func:`repro.chase.standard.standard_chase`.

    ``initial_delta`` seeds the first delta round with a subset of the
    instance instead of all of it -- the incremental re-solve path
    (:mod:`repro.incremental`) passes just the edited atoms (plus the
    re-derivation frontier) so a continuation chase only inspects
    triggers that can involve them.  ``None`` (the default) keeps the
    from-scratch behavior.  Egds are still checked globally every
    round, so an edit that enables a merge is never missed.
    """
    return chase_rounds(
        "seminaive",
        "semi-naive chase",
        instance.copy(),
        dependencies,
        lambda tgds, current: DeltaSource(tgds, current, initial_delta),
        max_steps=max_steps,
        trace=trace,
        null_factory=null_factory,
    )

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

from ..core.atoms import Atom, Substitution
from ..core.instance import Instance
from ..core.terms import NullFactory, Value
from ..dependencies.base import Dependency
from ..dependencies.tgd import Tgd
from ..logic.matching import match
from .loop import DEFAULT_MAX_STEPS, TriggerSource, chase_rounds
from .result import ChaseOutcome


def _unify_seed(pattern: Atom, fact: Atom) -> Optional[Dict]:
    """Bindings from matching one premise atom against one delta fact."""
    if pattern.relation != fact.relation:
        return None
    bound: Dict = {}
    for pattern_arg, fact_arg in zip(pattern.args, fact.args):
        if isinstance(pattern_arg, Value):
            if pattern_arg != fact_arg:
                return None
        else:
            known = bound.get(pattern_arg)
            if known is None:
                bound[pattern_arg] = fact_arg
            elif known != fact_arg:
                return None
    return bound


def _seed_decomposition(tgd: Tgd) -> Optional[Tuple]:
    """Per-tgd delta-join plan, computed once per chase run.

    For every premise-atom position ``p`` the pair ``(pattern_p, rest_p)``
    where ``rest_p`` is the premise without position ``p``.  The same
    tuple objects are reused across every pass, so the completion join
    for each seed position compiles exactly once and every later pass is
    a pure plan-cache hit (keyed by the seed atom's bound-variable set).
    Returns None for FO premises, which have no atom list to seed from.
    """
    if tgd.premise_atoms is None:
        return None
    atoms = tgd.premise_atoms
    return tuple(
        (atoms[i], atoms[:i] + atoms[i + 1 :]) for i in range(len(atoms))
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

    def matches(self, tgd: Tgd, instance: Instance) -> Iterable[Substitution]:
        """Premise matches of ``tgd`` that use at least one delta atom.

        Deduplicates across seed positions (a match touching two delta
        atoms would otherwise be reported twice).
        """
        if tgd.premise_atoms is None:
            # FO premise (s-t tgd): fires only off source atoms; if the
            # delta contains any premise relation, fall back to a full
            # scan.
            relations = {r.name for r in tgd.premise_relations()}
            if any(fact.relation.name in relations for fact in self._delta):
                yield from tgd.premise_matches(instance)
            return
        seen: Set[Tuple[Value, ...]] = set()
        all_variables = tuple(tgd.frontier) + tuple(tgd.premise_only)
        for pattern, rest in self._seeds[id(tgd)]:
            for fact in self._delta:
                bound = _unify_seed(pattern, fact)
                if bound is None:
                    continue
                initial = Substitution(bound)
                for completed in match(rest, instance, initial=initial):
                    key = completed.as_tuple(all_variables)
                    if key not in seen:
                        seen.add(key)
                        yield completed

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

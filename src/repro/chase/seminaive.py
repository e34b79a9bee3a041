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

A completion depends only on the seed's *join key*, the values of its
variables that the rest of the premise also uses, so a pass runs one
completion join per distinct key of a seed position and splices each
fact's own values into the shared completions: the bindings, and their
order, are those of one join per fact.

Egd applications rewrite atoms; rewritten atoms re-enter the delta so
matches they enable are found again.  A later merge of the same egd
fixpoint can rewrite them once more, so a pass after a merge first
drops the delta atoms that are no longer in the instance: a stale copy
would seed matches for premises the instance no longer satisfies.  The
engine produces a valid standard chase sequence (every firing is
checked against the current instance), hence for weakly acyclic
settings its result is a canonical universal solution, hom-equivalent
to the batched engine's.  It is the default engine of
:func:`repro.exchange.solve`.

Both engines run the one round loop of :mod:`repro.chase.loop`; this
module only supplies its trigger source, :class:`DeltaSource`.  The
benchmark module ``bench_seminaive.py`` races the two.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.terms import NullFactory, Value, Variable
from ..dependencies.base import Dependency
from ..dependencies.egd import Egd
from ..dependencies.tgd import Tgd
from ..logic.matching import match_plan
from ..logic.plans import plan_for, tuple_getter
from .loop import DEFAULT_MAX_STEPS, TriggerSource, chase_rounds
from .result import ChaseOutcome


class _Seed:
    """One premise position of a tgd's delta join, compiled once per run.

    ``pattern`` is the premise atom a delta fact is unified with and
    ``rest`` the premise without it.  A unified fact fixes the values of
    ``pattern``'s variables; only those that also occur in ``rest`` --
    the fact's *join key*, :attr:`keys` -- constrain the completion join
    of ``rest``.  So facts with one key share one completion join, and a
    binding ``ū‖v̄`` is the fact's own values (:attr:`reads`) spliced
    with one completion (the values of :attr:`joined`).  The seed
    resolves the completion join's plan (``rest`` with :attr:`keys`
    pre-bound) when it is built and holds it for the run, so no join,
    on any pass, makes a plan-cache lookup (:meth:`complete`).  With no
    ``rest`` (a one-atom premise) the unified fact is the whole match,
    and :meth:`unify` reads its binding straight off it.
    """

    __slots__ = (
        "relation",
        "rest",
        "checks",
        "reads",
        "keys",
        "key_of",
        "joined",
        "splice",
        "plan",
    )

    def __init__(
        self, pattern: Atom, rest: Tuple[Atom, ...], order: Tuple[Variable, ...]
    ):
        self.relation = pattern.relation.name
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
        #: ``(position, constant)`` and ``(position, earlier position)``
        #: equalities a fact must meet to unify with ``pattern``.
        self.checks = tuple(checks)
        own = [variable for variable in order if variable in first]
        #: The position in a unified fact of each of ``pattern``'s
        #: variables, in binding order.
        self.reads = tuple(first[variable] for variable in own)
        shared = {term for atom in rest for term in atom.args}
        #: The join key's variables, sorted by name: the completion
        #: join's pre-bound variables, in the order its plan seeds them.
        self.keys = tuple(
            sorted((v for v in first if v in shared), key=lambda v: v.name)
        )
        #: Reads a unified fact's join key off its arguments.
        self.key_of = tuple_getter([first[variable] for variable in self.keys])
        #: The variables only ``rest`` binds, in binding order: what a
        #: completion join yields.
        self.joined = tuple(
            variable for variable in order if variable not in first
        )
        #: Reorders ``own values + completion`` into the binding order,
        #: or None when it already is in that order.
        placed = {
            variable: index
            for index, variable in enumerate(own + list(self.joined))
        }
        picks = [placed[variable] for variable in order]
        in_order = picks == list(range(len(picks)))
        self.splice = None if in_order else tuple_getter(picks)
        #: The completion join's held plan, or None with no ``rest``.
        self.plan = plan_for(rest, (), self.keys) if rest else None

    def unify(self, fact: Atom) -> Optional[Tuple[Value, ...]]:
        """The values :attr:`reads` names in ``fact``, or None when
        ``fact`` (of :attr:`relation`) does not unify with the pattern."""
        args = fact.args
        for position, expected in self.checks:
            if args[position] != (
                args[expected] if expected.__class__ is int else expected
            ):
                return None
        return tuple([args[position] for position in self.reads])

    def complete(
        self, instance: Instance, key: Tuple[Value, ...]
    ) -> List[Tuple[Value, ...]]:
        """The completion join of join key ``key``: the values of
        :attr:`joined` per match of ``rest``, in match order."""
        return list(match_plan(self.plan, instance, self.joined, key))


def _seed_decomposition(tgd: Tgd) -> Optional[Tuple[_Seed, ...]]:
    """Per-tgd delta-join plan, computed once per chase run: one
    :class:`_Seed` per premise-atom position.  Returns None for FO
    premises, which have no atom list to seed from."""
    if tgd.premise_atoms is None:
        return None
    atoms = tgd.premise_atoms
    return tuple(
        _Seed(atoms[i], atoms[:i] + atoms[i + 1 :], tgd.binding_order)
        for i in range(len(atoms))
    )


#: A pass's delta: relation name -> its atoms, deduplicated in order of
#: first occurrence (a dict used as an ordered set).
_Groups = Dict[str, Dict[Atom, None]]


def _group_into(groups: _Groups, atoms: Iterable[Atom]) -> _Groups:
    for atom in atoms:
        groups.setdefault(atom.relation.name, {})[atom] = None
    return groups


class DeltaSource(TriggerSource):
    """Semi-naive triggers: premise matches that use a delta atom.

    The delta of a pass is what the previous pass added plus every atom
    an egd merge rewrote since, less the atoms a merge has rewritten
    away again, grouped by relation.  Every premise match and every egd
    violation the chase has not yet handled uses a delta atom, so:

    * a one-atom premise's bindings are read off the delta facts of its
      relation, with no matcher call;
    * a premise with an atom whose relation is all new (every atom of it
      is in the delta, as on a from-scratch chase's first pass) takes
      one full scan: each of its matches uses a delta atom;
    * any other premise seeds its completion joins from the delta,
      one join per seed position and join key (:class:`_Seed`);
    * an egd none of whose premise relations has a delta atom is not
      checked (:meth:`may_violate`).

    The chase ends after a pass that fires nothing: the instance is
    then the one the last egd fixpoint left.
    """

    def __init__(
        self,
        tgds: Sequence[Tgd],
        instance: Instance,
        initial_delta: Optional[Sequence[Atom]] = None,
    ):
        # Delta-join decompositions, once per run: each seed holds its
        # completion join's plan across passes.
        self._seeds = {id(tgd): _seed_decomposition(tgd) for tgd in tgds}
        self._instance = instance
        self._groups = _group_into(
            {},
            instance
            if initial_delta is None
            else (item for item in initial_delta if item in instance),
        )
        self._next: List[Atom] = []
        # Set by a merge: some delta atoms may have been rewritten away.
        self._stale = False

    def may_violate(self, egd: Egd) -> bool:
        groups = self._groups
        return any(atom.relation.name in groups for atom in egd.premise_atoms)

    def pending(self) -> bool:
        # Runs after each egd fixpoint, right before the pass.
        if self._stale:
            instance = self._instance
            groups: _Groups = {}
            for name, bucket in self._groups.items():
                kept = {item: None for item in bucket if item in instance}
                if kept:
                    groups[name] = kept
            self._groups = groups
            self._stale = False
        return bool(self._groups)

    def matches(
        self, tgd: Tgd, instance: Instance
    ) -> Iterable[Tuple[Value, ...]]:
        """Bindings ``ū‖v̄`` of ``tgd`` whose match uses a delta atom.

        Seeded joins deduplicate across seed positions (a match touching
        two delta atoms would otherwise be reported twice); the binding
        itself is the dedup key.  Facts are visited in delta order and
        each fact's completions in match order, whether its key's join
        ran for it or for an earlier fact.
        """
        groups = self._groups
        seeds = self._seeds[id(tgd)]
        if seeds is None:
            # FO premise (s-t tgd): fires only off source atoms; if the
            # delta contains any premise relation, fall back to a full
            # scan.
            if any(r.name in groups for r in tgd.premise_relations()):
                yield from tgd.premise_bindings(instance)
            return
        if len(seeds) == 1:
            seed = seeds[0]
            for fact in groups.get(seed.relation, ()):
                binding = seed.unify(fact)
                if binding is not None:
                    yield binding
            return
        buckets = [groups.get(seed.relation) for seed in seeds]
        for seed, bucket in zip(seeds, buckets):
            if bucket and len(bucket) == instance.count_of(seed.relation):
                yield from tgd.premise_bindings(instance)
                return
        seen: Set[Tuple[Value, ...]] = set()
        for seed, bucket in zip(seeds, buckets):
            if not bucket:
                continue
            # One completion join per join key, for this call only: the
            # chase materializes a tgd's triggers before it fires any.
            completions: Dict[Tuple[Value, ...], List[Tuple[Value, ...]]] = {}
            key_of, splice = seed.key_of, seed.splice
            for fact in bucket:
                own = seed.unify(fact)
                if own is None:
                    continue
                key = key_of(fact.args)
                tails = completions.get(key)
                if tails is None:
                    tails = completions[key] = seed.complete(instance, key)
                for tail in tails:
                    binding = own + tail
                    if splice is not None:
                        binding = splice(binding)
                    if binding not in seen:
                        seen.add(binding)
                        yield binding

    def added(self, atoms: List[Atom]) -> None:
        self._next.extend(atoms)

    def rewritten(self, instance: Instance, value: Value) -> None:
        # Every atom holding the surviving value: a superset of the
        # atoms whose shape changed, which is what delta correctness
        # needs.
        _group_into(self._groups, instance.atoms_containing(value))
        self._stale = True

    def advance(self) -> None:
        self._groups = _group_into({}, self._next)
        self._next = []


def seminaive_chase(
    instance: Instance,
    dependencies: Sequence[Dependency],
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
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
    from-scratch behavior.  The atoms outside ``initial_delta`` are
    taken to satisfy every dependency already (a chased state), so an
    egd is checked only when a delta atom -- an edited, rederived or
    rewritten one -- lies in one of its premise relations: a new
    violation needs one, since egd premises are conjunctions of
    atoms.
    """
    return chase_rounds(
        "seminaive",
        "semi-naive chase",
        instance.copy(),
        dependencies,
        lambda tgds, current: DeltaSource(tgds, current, initial_delta),
        max_steps=max_steps,
        null_factory=null_factory,
    )

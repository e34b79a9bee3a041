"""Compiled match plans: one-time query compilation for the matcher.

The interpreted matcher in :mod:`repro.logic.matching` re-derives its
atom ordering and candidate sets from scratch on every call, even though
the patterns it is asked about -- tgd and egd premises, conjunctive
queries, canonical queries of instances -- are fixed for the life of a
chase or a homomorphism search.  This module compiles each distinct
``(pattern, inequalities, pre-bound variables)`` triple **once** into a
:class:`CompiledPattern` and caches it (:func:`plan_for`), so repeated
evaluation pays only for execution.  Owners of a fixed pattern go one
step further and **hold** its plan: they resolve it through
:func:`plan_for` on first use and run it through
:func:`repro.logic.matching.match_plan` or
:func:`repro.logic.matching.exists_plan` from then on, with no cache
lookup.  They are a tgd's conclusion check, an egd's premise, a
semi-naive seed's completion join (:mod:`repro.chase.seminaive`) and a
block-kernel round (:func:`repro.homomorphism.blocks.minimize_block`).
A plan is:

* **Static join order.**  A greedy fail-first order is fixed at compile
  time from static selectivity: atoms with more constants and already
  bound variables first, fewer new variables, smaller arity as the
  tie-break.  The interpreted matcher recomputes candidate counts for
  every remaining atom at every search node; the compiled plan does no
  such bookkeeping.
* **Slot arrays instead of dict substitutions.**  Every variable gets an
  integer slot; execution binds and unbinds list entries instead of
  building dictionaries.
* **Index-probe programs.**  Each step precomputes which (position,
  constant) and (position, slot) pairs can serve as index probes; at run
  time the smallest ``(relation, position, value)`` bucket is chosen,
  with an immediate cut when any probe is empty.
* **Ground-membership fast path.**  A step whose arguments are all
  constants or already-bound variables does not iterate candidates at
  all: it assembles the argument tuple and asks
  :meth:`repro.core.instance.Instance.has_tuple` -- an O(1) hash probe
  against the per-relation full-tuple index.  A plan made only of such
  steps (a full tgd's conclusion check) is a :attr:`CompiledPattern.ground`
  plan: one routine (:meth:`CompiledPattern._ground`) answers it probe
  by probe, reading each argument tuple straight off the pre-bound
  values, with no slot array and no generator.
* **Identity comparisons.**  :class:`repro.core.terms.Const` and
  :class:`repro.core.terms.Null` are interned, so every equality test in
  the inner loop is a pointer comparison (``is``).

A plan has two entry points: :meth:`CompiledPattern.project` yields
the values of a given variable order straight off the slot array, one
tuple per match, and :meth:`CompiledPattern.exists` decides whether any
match extends a tuple of pre-bound values.  Pre-bound variables hold
the leading slots in name order, so a caller seeds them from a tuple
without a dict; the plan trusts that order and arity, which the public
entry points of :mod:`repro.logic.matching` check.  Both count the same
work for the same match.  :meth:`CompiledPattern.project` also takes
``without``, one atom to match around: the executor sizes buckets as if
the atom were gone and never offers it as a candidate, so the block
kernel's retract attempts search ``I \\ {A}`` without writing to ``I``.

Inequalities are scheduled at the earliest step where both sides are
bound (or before the first step, when the pre-bound values already
decide them), so they prune the search exactly as eagerly as in the
interpreted matcher.  Inequalities that can never be fully bound are
dropped -- the interpreted semantics treat them as vacuously true.

The compiled executor iterates the instance's **live** index buckets
(no frozenset copies).  Callers must therefore not mutate the instance
while consuming a match generator; every call site in this library
either materializes matches first or abandons the generator before
mutating (see ``docs/performance.md``).

Telemetry: ``plan.compilations`` counts cache misses (actual compiles),
``plan.cache_hits`` counts reuses; both count :func:`plan_for` lookups
only, so a held plan's runs count in neither.  The cache is a bounded
LRU so long-running multi-scenario processes cannot grow it without
limit; a held plan outlives its eviction, since plans are immutable.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from operator import itemgetter
from time import perf_counter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.terms import Term, Value, Variable
from ..obs import attribution as _attribution
from ..obs import Counter, counter, register_gauge_provider

Inequality = Tuple[Term, Term]

# Prefetched handles: counters survive ``repro.obs.reset`` (zeroed in
# place), so module-level fetches are safe and keep the hot path to one
# attribute increment.
_COMPILATIONS = counter("plan.compilations")
_CACHE_HITS = counter("plan.cache_hits")

#: The ``(candidates, backtracks)`` pair that matching outside any
#: ``attributed`` scope counts into.  Built directly rather than through
#: :func:`repro.obs.counter`, so it is never registered and unscoped
#: work shows up in no snapshot.
UNSCOPED: Tuple[Counter, Counter] = (
    Counter("unscoped.candidates"),
    Counter("unscoped.backtracks"),
)

# Snapshot-time gauge: the LRU's occupancy, read lazily so plan_for
# never touches a gauge on the hot path.
register_gauge_provider(
    lambda telemetry: telemetry.gauge("plan.cache_size").set(len(_CACHE))
)

_EMPTY_KEYS: FrozenSet[Variable] = frozenset()

# ----------------------------------------------------------------------
# Enable/disable toggle -- the interpreted matcher stays available as a
# reference oracle (the parity suite diffs the two).
# ----------------------------------------------------------------------

_ENABLED = True


def enabled() -> bool:
    """True when ``match()`` routes through compiled plans."""
    return _ENABLED


class interpreted_only:
    """Context manager forcing the interpreted reference matcher.

    Used by the parity suite to obtain oracle answers, and available as
    an escape hatch when debugging the compiler itself.  Reentrant.
    """

    __slots__ = ("_previous",)

    def __enter__(self) -> None:
        global _ENABLED
        self._previous = _ENABLED
        _ENABLED = False

    def __exit__(self, *exc_info) -> bool:
        global _ENABLED
        _ENABLED = self._previous
        return False


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------

#: Bounded LRU: pattern identity (content) -> CompiledPattern.  512 plans
#: comfortably covers every dependency premise, query, and canonical
#: pattern of a large scenario; eviction only matters for processes that
#: stream unboundedly many distinct patterns.
_CACHE_LIMIT = 512
_CACHE: "OrderedDict[Tuple, CompiledPattern]" = OrderedDict()


def reset_cache() -> None:
    """Drop all cached plans (tests and memory-sensitive callers)."""
    _CACHE.clear()


def cache_size() -> int:
    return len(_CACHE)


def plan_for(
    patterns: Sequence[Atom],
    inequalities: Sequence[Inequality],
    initial_keys,
) -> "CompiledPattern":
    """The compiled plan for this triple, compiling at most once.

    The cache key is content-based: two tuples of equal atoms share a
    plan.  Call sites that hold on to their pattern tuples (tgd
    premises, cached canonical patterns) hit the cache with nothing but
    cached-hash tuple hashing.  Owners of a fixed pattern call this once
    and hold the plan (see the module docstring); every other match
    looks its plan up here on each call.
    """
    key = (
        patterns if type(patterns) is tuple else tuple(patterns),
        inequalities if type(inequalities) is tuple else tuple(inequalities),
        frozenset(initial_keys) if initial_keys else _EMPTY_KEYS,
    )
    plan = _CACHE.get(key)
    if plan is not None:
        _CACHE_HITS.value += 1
        _CACHE.move_to_end(key)
        return plan
    plan = CompiledPattern(key[0], key[1], key[2])
    _COMPILATIONS.value += 1
    _CACHE[key] = plan
    if len(_CACHE) > _CACHE_LIMIT:
        _CACHE.popitem(last=False)
    return plan


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------

# A step is the tuple
#   (relation_name, const_checks, prior_checks, self_checks, binds,
#    ineq_checks, args_of, probes)
# with
#   const_checks: ((position, value), ...)      fact arg must BE value
#   prior_checks: ((position, slot), ...)       fact arg must BE slots[slot]
#   self_checks:  ((position, position0), ...)  repeated new variable
#   binds:        ((position, slot), ...)       first occurrence: bind slot
#   ineq_checks:  ((akind, aval, bkind, bval), ...)  kind 1 = slot, 0 = value
#   args_of:      None, or a callable reading the step's argument tuple
#                 off a slot array -- when set the step is fully bound and
#                 runs as a has_tuple probe
#   probes:       ((position, kind, value_or_slot), ...) index-probe options


class CompiledPattern:
    """A conjunctive pattern compiled against a fixed pre-bound key set.

    Immutable once built; safe to share across instances and calls.
    """

    __slots__ = (
        "patterns",
        "inequalities",
        "initial_keys",
        "n_slots",
        "prebound",
        "start_checks",
        "steps",
        "ground",
        "slot_of",
        "_readers",
        "_identity",
        "_attr_meta",
    )

    def __init__(
        self,
        patterns: Tuple[Atom, ...],
        inequalities: Tuple[Inequality, ...],
        initial_keys: FrozenSet[Variable],
    ):
        self.patterns = patterns
        self.inequalities = inequalities
        self.initial_keys = initial_keys

        # Slot numbering is deterministic given the key: pre-bound
        # variables first (sorted by name), then first occurrence in the
        # chosen join order.
        #: The pre-bound variables in name order: slots 0, 1, ...
        self.prebound: Tuple[Variable, ...] = tuple(
            sorted(initial_keys, key=lambda v: v.name)
        )
        slot_of: Dict[Variable, int] = {
            variable: slot for slot, variable in enumerate(self.prebound)
        }

        order = self._join_order(patterns, initial_keys)

        # Step construction walks the order, tracking which variables are
        # bound and at which step each first becomes bound (for
        # inequality scheduling).
        bound_at: Dict[Variable, int] = {v: -1 for v in initial_keys}
        steps: List[Tuple] = []
        for step_index, atom_index in enumerate(order):
            pattern = patterns[atom_index]
            const_checks: List[Tuple[int, Value]] = []
            prior_checks: List[Tuple[int, int]] = []
            self_checks: List[Tuple[int, int]] = []
            binds: List[Tuple[int, int]] = []
            new_here: Dict[Variable, int] = {}
            for position, term in enumerate(pattern.args):
                if isinstance(term, Value):
                    const_checks.append((position, term))
                elif term in new_here:
                    self_checks.append((position, new_here[term]))
                elif term in bound_at:
                    prior_checks.append((position, slot_of[term]))
                else:
                    slot = slot_of.get(term)
                    if slot is None:
                        slot = len(slot_of)
                        slot_of[term] = slot
                    new_here[term] = position
                    binds.append((position, slot))
            for variable in new_here:
                bound_at[variable] = step_index
            probes = tuple(
                [(position, 0, value) for position, value in const_checks]
                + [(position, 1, slot) for position, slot in prior_checks]
            )
            if binds:
                args_of = None
            else:
                args_of = _args_reader(
                    [
                        term if isinstance(term, Value) else slot_of[term]
                        for term in pattern.args
                    ]
                )
            steps.append(
                (
                    pattern.relation.name,
                    tuple(const_checks),
                    tuple(prior_checks),
                    tuple(self_checks),
                    tuple(binds),
                    [],  # inequality checks, filled below
                    args_of,
                    probes,
                )
            )

        # Inequality scheduling: earliest step where both sides resolve.
        start_checks: List[Tuple[int, object, int, object]] = []
        for left, right in inequalities:
            encoded: List[Tuple[int, object]] = []
            when = -1
            resolvable = True
            for side in (left, right):
                if isinstance(side, Value):
                    encoded.append((0, side))
                elif isinstance(side, Variable) and side in slot_of:
                    step = bound_at.get(side)
                    if step is None:
                        resolvable = False
                        break
                    encoded.append((1, slot_of[side]))
                    if step > when:
                        when = step
                else:
                    # A side that never becomes a value is never
                    # violated -- matches the interpreted semantics.
                    resolvable = False
                    break
            if not resolvable:
                continue
            check = (encoded[0][0], encoded[0][1], encoded[1][0], encoded[1][1])
            if when < 0:
                start_checks.append(check)
            else:
                steps[when][5].append(check)

        self.start_checks: Tuple[Tuple, ...] = tuple(start_checks)
        self.steps: Tuple[Tuple, ...] = tuple(
            (rel, cc, pc, sc, bi, tuple(iq), ap, pr)
            for rel, cc, pc, sc, bi, iq, ap, pr in steps
        )
        #: Every step is a ground probe (vacuously so with no steps):
        #: :meth:`_ground` answers the plan straight off the pre-bound
        #: values, without a slot array or a :meth:`_run` generator.
        self.ground = all(step[6] is not None for step in self.steps)
        self.n_slots = len(slot_of)
        #: Variable -> slot, for pre-bound and pattern variables alike.
        self.slot_of: Dict[Variable, int] = slot_of
        self._readers: Dict[Tuple[Variable, ...], object] = {}
        self._identity: Optional[str] = None
        self._attr_meta: Optional[List[dict]] = None

    # ------------------------------------------------------------------
    # Attribution identity and static step metadata
    # ------------------------------------------------------------------

    @property
    def identity(self) -> str:
        """A stable content digest of the plan-cache key (16 hex chars).

        Two processes compiling the same (patterns, inequalities,
        pre-bound keys) triple produce the same identity, so plan stats
        from separate runs line up by name.
        """
        found = self._identity
        if found is None:
            payload = "|".join(
                (
                    repr(self.patterns),
                    repr(self.inequalities),
                    repr(sorted(v.name for v in self.initial_keys)),
                )
            )
            found = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
            self._identity = found
        return found

    @property
    def label(self) -> str:
        """Human-readable plan label: the conjunction plus pre-bound vars."""
        text = " & ".join(str(pattern) for pattern in self.patterns)
        keys = sorted(v.name for v in self.initial_keys)
        return f"{text} [prebound {', '.join(keys)}]" if keys else text

    def _step_meta(self) -> List[dict]:
        """Static per-step metadata for the attribution plan record."""
        found = self._attr_meta
        if found is None:
            found = []
            for rel, cc, pc, sc, bi, iq, ap, pr in self.steps:
                found.append(
                    {
                        "relation": rel,
                        "checks": len(cc) + len(pc) + len(sc) + len(iq),
                        "binds": len(bi),
                        "ground": ap is not None,
                        "probes": len(pr),
                    }
                )
            self._attr_meta = found
        return found

    def _attr_record(self) -> dict:
        """This plan's stats record (re-fetched so resets are honored)."""
        return _attribution.plan_record(
            self.identity, self.label, self._step_meta()
        )

    @staticmethod
    def _join_order(
        patterns: Tuple[Atom, ...], initial_keys: FrozenSet[Variable]
    ) -> List[int]:
        """Greedy fail-first order from static selectivity.

        Prefer atoms with many constants/bound variables, then few new
        variables, then small arity; the original index breaks ties so
        compilation is deterministic.
        """
        remaining = list(range(len(patterns)))
        bound = set(initial_keys)
        order: List[int] = []
        while remaining:
            best_index = None
            best_score = None
            for i in remaining:
                pattern = patterns[i]
                n_fixed = 0
                new_vars = set()
                for term in pattern.args:
                    if isinstance(term, Value):
                        n_fixed += 1
                    elif term in bound:
                        n_fixed += 1
                    else:
                        new_vars.add(term)
                score = (-n_fixed, len(new_vars), len(pattern.args), i)
                if best_score is None or score < best_score:
                    best_score = score
                    best_index = i
            remaining.remove(best_index)
            order.append(best_index)
            for term in patterns[best_index].args:
                if isinstance(term, Variable):
                    bound.add(term)
        return order

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def project(
        self,
        instance: Instance,
        variables: Tuple[Variable, ...],
        values: Sequence[Value] = (),
        counters: Tuple[Counter, Counter] = UNSCOPED,
        without: Optional[Atom] = None,
    ) -> Iterator[Tuple[Value, ...]]:
        """The values of ``variables`` per match, one tuple each.

        ``values`` are the values of :attr:`prebound`, in that order;
        every variable must be pre-bound or bound by the pattern.  A
        :attr:`ground` plan reads its tuple straight off ``values``
        (:meth:`_ground`); any other reads it off the slot array of
        :meth:`_search`.  ``counters`` is a ``(candidates,
        backtracks)`` pair; each increment is written as it happens, so
        closing the generator early leaves exact totals.  ``without`` is
        an atom the search treats as absent from ``instance`` (see
        :meth:`_search`).
        """
        if self.start_checks and not self._admits(values):
            return
        read = self._reader(variables)
        if self.ground:
            if self._ground(instance, values, counters, without):
                yield read(values)
            return
        slots = self._seeded(values)
        for _ in self._search(instance, slots, counters, without):
            yield read(slots)

    def exists(
        self,
        instance: Instance,
        values: Sequence[Value] = (),
        counters: Tuple[Counter, Counter] = UNSCOPED,
    ) -> bool:
        """True if some match extends the pre-bound ``values``.

        Stops at the first match, counting exactly the work of taking
        one item from :meth:`project`.
        """
        if self.start_checks and not self._admits(values):
            return False
        if self.ground:
            return self._ground(instance, values, counters)
        for _ in self._search(instance, self._seeded(values), counters):
            return True
        return False

    def _admits(self, values: Sequence[Value]) -> bool:
        """False when the pre-bound ``values`` violate an inequality
        that is decided before the first step (:attr:`start_checks`)."""
        for akind, aval, bkind, bval in self.start_checks:
            left = values[aval] if akind else aval
            right = values[bval] if bkind else bval
            if left is right:
                return False
        return True

    def _seeded(self, values: Sequence[Value]) -> List[Optional[Value]]:
        """A slot array with the pre-bound slots set from ``values``.

        Pre-bound variables hold the leading slots in name order, so
        ``values[i]`` is the value of the ``i``-th variable of
        :attr:`prebound`.  Callers pass values in that order (the public
        entry points of :mod:`repro.logic.matching` check it).
        """
        slots: List[Optional[Value]] = list(values)
        slots.extend([None] * (self.n_slots - len(slots)))
        return slots

    def _reader(self, variables: Tuple[Variable, ...]):
        """A callable reading ``variables`` off a slot array as a tuple.

        Built once per variable order and kept on the plan.
        """
        reader = self._readers.get(variables)
        if reader is None:
            reader = tuple_getter([self.slot_of[v] for v in variables])
            self._readers[variables] = reader
        return reader

    def _uses(self) -> Optional[List[List]]:
        """Count one use of the plan when attribution is on, and return
        its per-step rows; None when attribution is off."""
        if not _attribution.enabled():
            return None
        record = self._attr_record()
        record["uses"] += 1
        return record["counts"]

    def _ground(
        self,
        instance: Instance,
        values: Sequence[Value],
        counters: Tuple[Counter, Counter],
        without: Optional[Atom] = None,
    ) -> bool:
        """Answer a :attr:`ground` plan: does every probe hit?

        A ground plan binds nothing, so ``values`` is its whole slot
        array and each step reads its argument tuple straight off them:
        no slot array is built and no generator runs.  Probes
        (:func:`_probe`) run in step order until the first miss, with
        the counts and attribution rows of a probe step of :meth:`_run`:
        the plan matches once or not at all.  A probe for ``without``,
        an atom the search treats as absent, misses.
        """
        stats = self._uses()
        candidates, backtracks = counters
        for index, step in enumerate(self.steps):
            if not _probe(
                instance,
                step[0],
                step[6](values),
                candidates,
                backtracks,
                None if stats is None else stats[index],
                without,
            ):
                return False
        return True

    def _search(
        self,
        instance: Instance,
        slots: List,
        counters: Tuple[Counter, Counter],
        without: Optional[Atom] = None,
    ) -> Iterator[bool]:
        """The backtracking executor over seeded ``slots``, for a plan
        that is not :attr:`ground`.

        It counts into the ``(candidates, backtracks)`` pair; when
        attribution is on it also fills the plan's per-step rows.

        ``without`` is an atom to search around: the executor matches
        into ``instance`` less that atom, with the choices, counts and
        rows of a search over a copy with it discarded, and never writes
        to ``instance``.  An atom ``instance`` lacks changes nothing.
        """
        if without is not None and without not in instance:
            without = None
        candidates, backtracks = counters
        return self._run(
            instance, slots, 0, candidates, backtracks, self._uses(), without
        )

    def _run(
        self,
        instance: Instance,
        slots: List,
        depth: int,
        candidates: Counter,
        backtracks: Counter,
        stats: Optional[List[List]],
        without: Optional[Atom],
    ) -> Iterator[bool]:
        """The executor from step ``depth`` on: yields once per complete
        match (slots are set).  The last step yields to the consumer
        itself rather than through a frame with no step to run.

        A candidate is one fact (or ground probe) considered; a
        backtrack is a candidate that failed its checks, or the undoing
        of a non-empty binding -- the interpreted matcher's notion.

        ``stats`` is None unless attribution is on; then ``stats[depth]``
        is the step's ``[probes, candidates, emitted, seconds]`` row in
        the plan record.  The frame reads the candidate counter and the
        clock when it starts, around each yield and when it ends, so a
        step's candidates and self-time leave out child steps and
        consumer time.

        ``without`` is None or an atom of ``instance`` to search around.
        A step of its relation sizes every bucket holding it as one atom
        smaller, so it picks the bucket, and cuts at the empty bucket,
        that a search with the atom discarded would; it then never
        offers the atom as a candidate.
        """
        steps = self.steps
        rel, const_checks, prior_checks, self_checks, binds, ineqs, args_of, probes = steps[depth]
        row = None
        if stats is not None:
            row = stats[depth]
            seen = candidates.value
            started = perf_counter()

        if args_of is not None:
            # Fully bound: one hash probe, no candidate iteration.  No
            # inequality can first become checkable here (a step without
            # binds resolves nothing new).
            if _probe(
                instance, rel, args_of(slots), candidates, backtracks, row,
                without,
            ):
                if depth + 1 == len(steps):
                    yield True
                else:
                    yield from self._run(
                        instance, slots, depth + 1, candidates, backtracks,
                        stats, without,
                    )
            return

        # The skipped atom, when it is of this step's relation.
        skip = without
        if skip is not None and skip.relation.name != rel:
            skip = None
        bucket = instance.probe_relation(rel)
        best = len(bucket)
        if skip is not None:
            best -= 1
        for position, kind, value in probes:
            if stats is not None:
                row[0] += 1
            if kind:
                value = slots[value]
            probe = instance.probe_position(rel, position, value)
            count = len(probe)
            if skip is not None and skip.args[position] is value:
                count -= 1
            if count < best:
                best = count
                bucket = probe
                if not count:
                    break
        if skip is not None and skip in bucket:
            bucket = _skipping(bucket, skip)

        for fact in bucket:
            candidates.value += 1
            fact_args = fact.args
            ok = True
            for position, value in const_checks:
                if fact_args[position] is not value:
                    ok = False
                    break
            if ok:
                for position, slot in prior_checks:
                    if fact_args[position] is not slots[slot]:
                        ok = False
                        break
            if ok:
                for position, earlier in self_checks:
                    if fact_args[position] is not fact_args[earlier]:
                        ok = False
                        break
            if not ok:
                backtracks.value += 1
                continue
            for position, slot in binds:
                slots[slot] = fact_args[position]
            for akind, aval, bkind, bval in ineqs:
                left = slots[aval] if akind else aval
                right = slots[bval] if bkind else bval
                if left is right:
                    ok = False
                    break
            if ok:
                if stats is not None:
                    row[1] += candidates.value - seen
                    row[2] += 1
                    row[3] += perf_counter() - started
                if depth + 1 == len(steps):
                    yield True
                else:
                    yield from self._run(
                        instance, slots, depth + 1, candidates, backtracks,
                        stats, without,
                    )
                if stats is not None:
                    seen = candidates.value
                    started = perf_counter()
            if binds:
                backtracks.value += 1
            for _, slot in binds:
                slots[slot] = None
        if stats is not None:
            row[1] += candidates.value - seen
            row[3] += perf_counter() - started

    def explain(self) -> str:
        """A human-readable rendering of the plan (docs and debugging)."""
        lines = [
            f"plan over {len(self.patterns)} atom(s), "
            f"{self.n_slots} slot(s), prebound={sorted(v.name for v in self.initial_keys)}"
        ]
        for i, step in enumerate(self.steps):
            rel, cc, pc, sc, bi, iq, ap, pr = step
            kind = "probe(has_tuple)" if ap is not None else "scan+index"
            lines.append(
                f"  step {i}: {rel} [{kind}] consts={len(cc)} "
                f"prior={len(pc)} self={len(sc)} binds={len(bi)} ineqs={len(iq)}"
            )
        return "\n".join(lines)


def tuple_getter(positions: Sequence[int]) -> Callable[[Sequence], Tuple]:
    """A callable reading ``positions`` off a sequence, always as a tuple
    (``itemgetter`` alone gives a bare value for one position)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        only = positions[0]
        return lambda values: (values[only],)
    return lambda values: ()


def _args_reader(entries: List) -> Callable[[Sequence], Tuple]:
    """A callable building a ground step's argument tuple from a slot
    array: an int entry is a slot, any other entry a constant."""
    if all(type(entry) is int for entry in entries):
        return tuple_getter(entries)
    entries = tuple(entries)
    return lambda slots: tuple(
        [slots[entry] if type(entry) is int else entry for entry in entries]
    )


def _probe(
    instance: Instance,
    relation: str,
    args: Tuple[Value, ...],
    candidates: Counter,
    backtracks: Counter,
    row: Optional[List],
    without: Optional[Atom],
) -> bool:
    """One ground probe: is ``args`` a fact of ``relation``?

    The one probe routine, for every step of a ground plan
    (:meth:`CompiledPattern._ground`) and the probe steps of
    :meth:`CompiledPattern._run`.

    The probe counts as one candidate, and a miss as one backtrack.
    ``row`` is the step's attribution row, or None when attribution is
    off: the probe adds one probe and one candidate to it, one emitted
    match on a hit, and its own time.  A probe for ``without``, an atom
    the search treats as absent, is the miss it would be if the atom
    were discarded.
    """
    if row is not None:
        started = perf_counter()
    candidates.value += 1
    found = instance.has_tuple(relation, args) and not (
        without is not None
        and without.relation.name == relation
        and without.args == args
    )
    if not found:
        backtracks.value += 1
    if row is not None:
        row[0] += 1
        row[1] += 1
        row[2] += found
        row[3] += perf_counter() - started
    return found


def _skipping(bucket: Set[Atom], skip: Atom) -> Iterator[Atom]:
    """The atoms of ``bucket`` in its own order, less ``skip``.

    The hash compare settles every other atom without an ``__eq__``
    call.
    """
    skip_hash = skip._hash
    for fact in bucket:
        if fact._hash != skip_hash or fact != skip:
            yield fact

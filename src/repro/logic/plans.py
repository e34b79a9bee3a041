"""Compiled match plans: one-time query compilation for the matcher.

The interpreted matcher in :mod:`repro.logic.matching` re-derives its
atom ordering and candidate sets from scratch on every call, even though
the patterns it is asked about -- tgd and egd premises, conjunctive
queries, canonical queries of instances -- are fixed for the life of a
chase or a homomorphism search.  This module compiles each distinct
``(pattern, inequalities, pre-bound variables)`` triple **once** into a
:class:`CompiledPattern` and caches it, so repeated evaluation pays only
for execution:

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
  steps (a full tgd's conclusion check) is answered by its probes
  alone, with no generator (:attr:`CompiledPattern.ground`).
* **Identity comparisons.**  :class:`repro.core.terms.Const` and
  :class:`repro.core.terms.Null` are interned, so every equality test in
  the inner loop is a pointer comparison (``is``).

A plan has two entry points: :meth:`CompiledPattern.project` yields
the values of a given variable order straight off the slot array, one
tuple per match, and :meth:`CompiledPattern.exists` decides whether any
match extends a tuple of pre-bound values.  Pre-bound variables hold
the leading slots in name order, so a caller seeds them from a tuple
without a dict.  Both run the one executor and count the same work.
:meth:`CompiledPattern.project` also takes ``without``, one atom to
match around: the executor sizes buckets as if the atom were gone and
never offers it as a candidate, so the block kernel's retract attempts
search ``I \\ {A}`` without writing to ``I``.

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
``plan.cache_hits`` counts reuses.  The cache is a bounded LRU so
long-running multi-scenario processes cannot grow it without limit.
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
    plan.  Call sites that hold on to their pattern tuples (tgd/egd
    premises, cached canonical patterns) hit the cache with nothing but
    cached-hash tuple hashing.
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
#    ineq_checks, argprog, probes)
# with
#   const_checks: ((position, value), ...)      fact arg must BE value
#   prior_checks: ((position, slot), ...)       fact arg must BE slots[slot]
#   self_checks:  ((position, position0), ...)  repeated new variable
#   binds:        ((position, slot), ...)       first occurrence: bind slot
#   ineq_checks:  ((akind, aval, bkind, bval), ...)  kind 1 = slot, 0 = value
#   argprog:      None, or a tuple of Value-or-slot-int entries -- when set
#                 the step is fully bound and runs as a has_tuple probe
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
                argprog = None
            else:
                argprog = tuple(
                    term if isinstance(term, Value) else slot_of[term]
                    for term in pattern.args
                )
            steps.append(
                (
                    pattern.relation.name,
                    tuple(const_checks),
                    tuple(prior_checks),
                    tuple(self_checks),
                    tuple(binds),
                    [],  # inequality checks, filled below
                    argprog,
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
        #: :meth:`_execute` answers the plan without a :meth:`_run`
        #: generator.
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
        prebound: Tuple[Variable, ...] = (),
        values: Sequence[Value] = (),
        counters: Tuple[Counter, Counter] = UNSCOPED,
        without: Optional[Atom] = None,
    ) -> Iterator[Tuple[Value, ...]]:
        """The values of ``variables`` per match, one tuple each.

        Each tuple is read straight off the slot array.  ``values``
        seeds the pre-bound variables ``prebound`` (see :meth:`_seeded`).
        Every variable must be pre-bound or bound by the pattern.
        ``counters`` is a ``(candidates, backtracks)`` pair; each
        increment is written as it happens, so closing the generator
        early leaves exact totals.  ``without`` is an atom the search
        treats as absent from ``instance`` (see :meth:`_execute`).
        """
        read = self._reader(variables)
        slots = self._seeded(prebound, values)
        runner = self._execute(instance, slots, counters, without)
        if runner is None:
            return
        for _ in runner:
            yield read(slots)

    def exists(
        self,
        instance: Instance,
        prebound: Tuple[Variable, ...] = (),
        values: Sequence[Value] = (),
        counters: Tuple[Counter, Counter] = UNSCOPED,
    ) -> bool:
        """True if some match extends the pre-bound ``values``.

        Stops at the first match, counting exactly the work of taking
        one item from :meth:`project`.
        """
        runner = self._execute(
            instance, self._seeded(prebound, values), counters
        )
        if runner is None:
            return False
        for _ in runner:
            return True
        return False

    def _seeded(
        self, prebound: Tuple[Variable, ...], values: Sequence[Value]
    ) -> List[Optional[Value]]:
        """A slot array with the pre-bound slots set from ``values``.

        Pre-bound variables hold the leading slots in name order, so
        ``prebound`` must be :attr:`prebound` itself -- another order
        would seed the wrong slots -- and ``values[i]`` is the value of
        its ``i``-th variable.
        """
        order = self.prebound
        if prebound != order and tuple(prebound) != order:
            raise ValueError(
                f"pre-bound variables must be in name order {order!r}, "
                f"got {prebound!r}"
            )
        if len(values) != len(order):
            raise ValueError(
                f"{len(order)} pre-bound values expected, got {len(values)}"
            )
        for value in values:
            if not isinstance(value, Value):
                raise TypeError(
                    f"pre-bound values must be values, got {value!r}"
                )
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

    def _execute(
        self,
        instance: Instance,
        slots: List,
        counters: Tuple[Counter, Counter],
        without: Optional[Atom] = None,
    ) -> Optional[Iterator[bool]]:
        """The executor over seeded ``slots``; None when nothing matches
        before the search starts.

        It counts into the ``(candidates, backtracks)`` pair; when
        attribution is on it also fills the plan's per-step rows.  A
        :attr:`ground` plan (every step a ground probe, such as a full
        tgd's conclusion check, or no step at all) is answered here,
        probe by probe until the first miss, with the counts and rows
        :meth:`_run` would give it: it matches once or not at all.

        ``without`` is an atom to search around: the executor matches
        into ``instance`` less that atom, with the choices, counts and
        rows of a search over a copy with it discarded, and never writes
        to ``instance``.  An atom ``instance`` lacks changes nothing.
        """
        if without is not None and without not in instance:
            without = None
        for akind, aval, bkind, bval in self.start_checks:
            left = slots[aval] if akind else aval
            right = slots[bval] if bkind else bval
            if left is right:
                return None
        candidates, backtracks = counters
        stats = None
        if _attribution.enabled():
            record = self._attr_record()
            record["uses"] += 1
            stats = record["counts"]
        if self.ground:
            for step_index, step in enumerate(self.steps):
                if not _probe(
                    instance,
                    step[0],
                    step[6],
                    slots,
                    candidates,
                    backtracks,
                    None if stats is None else stats[step_index],
                    without,
                ):
                    return None
            return iter((True,))
        return self._run(
            instance, slots, 0, candidates, backtracks, stats, without
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
        rel, const_checks, prior_checks, self_checks, binds, ineqs, argprog, probes = steps[depth]
        row = None
        if stats is not None:
            row = stats[depth]
            seen = candidates.value
            started = perf_counter()

        if argprog is not None:
            # Fully bound: one hash probe, no candidate iteration.  No
            # inequality can first become checkable here (a step without
            # binds resolves nothing new).
            if _probe(
                instance, rel, argprog, slots, candidates, backtracks, row,
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


def _probe(
    instance: Instance,
    relation: str,
    argprog: Tuple,
    slots: List,
    candidates: Counter,
    backtracks: Counter,
    row: Optional[List],
    without: Optional[Atom],
) -> bool:
    """One ground step: is its argument tuple a fact of ``relation``?

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
    args = tuple(
        [slots[entry] if type(entry) is int else entry for entry in argprog]
    )
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

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
  against the per-relation full-tuple index.
* **Identity comparisons.**  :class:`repro.core.terms.Const` and
  :class:`repro.core.terms.Null` are interned, so every equality test in
  the inner loop is a pointer comparison (``is``).

Besides :meth:`CompiledPattern.matches`, which yields substitutions,
a plan has two tuple entry points for the chase's hot path:
:meth:`CompiledPattern.project` yields the values of a given variable
order straight off the slot array, one tuple per match, and
:meth:`CompiledPattern.exists` decides whether any match extends a
tuple of pre-bound values.  Pre-bound variables hold the leading slots
in name order, so a caller seeds them from a tuple without a dict.
All three run the same executors and count the same work.

Inequalities are scheduled at the earliest step where both sides are
bound (or before the first step, when the initial substitution already
decides them), so they prune the search exactly as eagerly as in the
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
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.atoms import Atom, Substitution
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
        "out_pairs",
        "start_checks",
        "steps",
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
        slot_of: Dict[Variable, int] = {}
        for variable in sorted(initial_keys, key=lambda v: v.name):
            slot_of[variable] = len(slot_of)
        self.prebound: Tuple[Tuple[Variable, int], ...] = tuple(
            (variable, slot)
            for variable, slot in slot_of.items()
        )

        order = self._join_order(patterns, initial_keys)

        # Step construction walks the order, tracking which variables are
        # bound and at which step each first becomes bound (for
        # inequality scheduling).
        bound_at: Dict[Variable, int] = {v: -1 for v in initial_keys}
        steps: List[Tuple] = []
        out_pairs: List[Tuple[Variable, int]] = []
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
                    out_pairs.append((term, slot))
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
        self.n_slots = len(slot_of)
        self.out_pairs: Tuple[Tuple[Variable, int], ...] = tuple(out_pairs)
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
        pre-bound keys) triple produce the same identity, so worker and
        parent plan stats merge by name.
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

    def matches(
        self,
        instance: Instance,
        initial_map: Dict[Variable, Value],
        counters: Tuple[Counter, Counter] = UNSCOPED,
    ) -> Iterator[Substitution]:
        """Enumerate substitutions, counting work into ``counters``.

        ``initial_map`` must bind exactly ``self.initial_keys`` (the
        plan was compiled for that key set).  ``counters`` is a
        ``(candidates, backtracks)`` pair; each increment is written as
        it happens, so closing the generator early leaves exact totals.
        """
        slots: List[Optional[Value]] = [None] * self.n_slots
        for variable, slot in self.prebound:
            slots[slot] = initial_map[variable]
        runner = self._execute(instance, slots, counters)
        if runner is None:
            return
        out_pairs = self.out_pairs
        for _ in runner:
            result = dict(initial_map)
            for variable, slot in out_pairs:
                result[variable] = slots[slot]
            substitution = Substitution.__new__(Substitution)
            substitution._mapping = result
            yield substitution

    def project(
        self,
        instance: Instance,
        variables: Tuple[Variable, ...],
        initial: Sequence[Value] = (),
        counters: Tuple[Counter, Counter] = UNSCOPED,
    ) -> Iterator[Tuple[Value, ...]]:
        """The values of ``variables`` per match, one tuple each.

        No dict and no :class:`Substitution`: each tuple is read straight
        off the slot array.  ``initial`` seeds the pre-bound slots, which
        come first and in variable-name order (see :meth:`_seeded`).
        Every variable must be pre-bound or bound by the pattern.  Work
        is counted exactly as by :meth:`matches`.
        """
        read = self._reader(variables)
        slots = self._seeded(initial)
        runner = self._execute(instance, slots, counters)
        if runner is None:
            return
        for _ in runner:
            yield read(slots)

    def exists(
        self,
        instance: Instance,
        initial: Sequence[Value] = (),
        counters: Tuple[Counter, Counter] = UNSCOPED,
    ) -> bool:
        """True if some match extends the pre-bound values ``initial``.

        Stops at the first match, counting exactly the work of taking
        one item from :meth:`matches`.
        """
        runner = self._execute(instance, self._seeded(initial), counters)
        if runner is None:
            return False
        for _ in runner:
            return True
        return False

    def _seeded(self, initial: Sequence[Value]) -> List[Optional[Value]]:
        """A slot array with the pre-bound slots set from ``initial``.

        Pre-bound variables hold the leading slots in name order, so
        ``initial[i]`` is the value of the ``i``-th pre-bound variable
        by name.
        """
        if len(initial) != len(self.prebound):
            raise ValueError(
                f"{len(self.prebound)} pre-bound values expected, "
                f"got {len(initial)}"
            )
        slots: List[Optional[Value]] = list(initial)
        slots.extend([None] * (self.n_slots - len(slots)))
        return slots

    def _reader(self, variables: Tuple[Variable, ...]):
        """A callable reading ``variables`` off a slot array as a tuple.

        Built once per variable order and kept on the plan.
        """
        reader = self._readers.get(variables)
        if reader is None:
            positions = tuple(self.slot_of[variable] for variable in variables)
            if len(positions) > 1:
                reader = itemgetter(*positions)
            elif positions:
                only = positions[0]
                reader = lambda slots: (slots[only],)  # noqa: E731
            else:
                reader = lambda slots: ()  # noqa: E731
            self._readers[variables] = reader
        return reader

    def _execute(
        self,
        instance: Instance,
        slots: List,
        counters: Tuple[Counter, Counter],
    ) -> Optional[Iterator[bool]]:
        """The executor over seeded ``slots``; None if a start check fails.

        The profiled executor runs when attribution is on, the plain one
        otherwise; both count into the ``(candidates, backtracks)`` pair.
        """
        for akind, aval, bkind, bval in self.start_checks:
            left = slots[aval] if akind else aval
            right = slots[bval] if bkind else bval
            if left is right:
                return None
        candidates, backtracks = counters
        if _attribution.enabled():
            record = self._attr_record()
            record["uses"] += 1
            return self._run_profiled(
                instance, slots, 0, record["counts"], candidates, backtracks
            )
        return self._run(instance, slots, 0, candidates, backtracks)

    def _run(
        self,
        instance: Instance,
        slots: List,
        depth: int,
        candidates: Counter,
        backtracks: Counter,
    ) -> Iterator[bool]:
        """The executor: yields once per complete match (slots are set).

        A candidate is one fact (or ground probe) considered; a
        backtrack is a candidate that failed its checks, or the undoing
        of a non-empty binding -- the interpreted matcher's notion.
        """
        steps = self.steps
        if depth == len(steps):
            yield True
            return
        rel, const_checks, prior_checks, self_checks, binds, ineqs, argprog, probes = steps[depth]

        if argprog is not None:
            # Fully bound: one hash probe, no candidate iteration.  No
            # inequality can first become checkable here (a step without
            # binds resolves nothing new).
            candidates.value += 1
            args = tuple(
                slots[entry] if type(entry) is int else entry
                for entry in argprog
            )
            if instance.has_tuple(rel, args):
                yield from self._run(
                    instance, slots, depth + 1, candidates, backtracks
                )
            else:
                backtracks.value += 1
            return

        bucket = instance.probe_relation(rel)
        best = len(bucket)
        for position, kind, value in probes:
            probe = instance.probe_position(
                rel, position, slots[value] if kind else value
            )
            count = len(probe)
            if count < best:
                if not count:
                    return
                best = count
                bucket = probe

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
                yield from self._run(
                    instance, slots, depth + 1, candidates, backtracks
                )
            if binds:
                backtracks.value += 1
            for _, slot in binds:
                slots[slot] = None

    def _run_profiled(
        self,
        instance: Instance,
        slots: List,
        depth: int,
        stats: List[List],
        candidates: Counter,
        backtracks: Counter,
    ) -> Iterator[bool]:
        """Attributed executor: per-step probes/candidates/emitted/time.

        ``stats[depth]`` is the step's mutable ``[probes, candidates,
        emitted, seconds]`` row in the attribution plan record.  Self-
        time excludes child steps *and* consumer time: the clock pauses
        across the recursive ``yield from`` and resumes when control
        returns to this frame.  The counter pair gets exactly the
        increments :meth:`_run` makes.
        """
        steps = self.steps
        if depth == len(steps):
            yield True
            return
        row = stats[depth]
        rel, const_checks, prior_checks, self_checks, binds, ineqs, argprog, probes = steps[depth]

        started = perf_counter()
        if argprog is not None:
            row[0] += 1
            row[1] += 1
            candidates.value += 1
            args = tuple(
                slots[entry] if type(entry) is int else entry
                for entry in argprog
            )
            if instance.has_tuple(rel, args):
                row[2] += 1
                row[3] += perf_counter() - started
                yield from self._run_profiled(
                    instance, slots, depth + 1, stats, candidates, backtracks
                )
            else:
                backtracks.value += 1
                row[3] += perf_counter() - started
            return

        bucket = instance.probe_relation(rel)
        best = len(bucket)
        for position, kind, value in probes:
            row[0] += 1
            probe = instance.probe_position(
                rel, position, slots[value] if kind else value
            )
            count = len(probe)
            if count < best:
                if not count:
                    row[3] += perf_counter() - started
                    return
                best = count
                bucket = probe

        for fact in bucket:
            row[1] += 1
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
                row[2] += 1
                row[3] += perf_counter() - started
                yield from self._run_profiled(
                    instance, slots, depth + 1, stats, candidates, backtracks
                )
                started = perf_counter()
            if binds:
                backtracks.value += 1
            for _, slot in binds:
                slots[slot] = None
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

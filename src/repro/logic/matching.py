"""Backtracking matcher for conjunctions of relational atoms.

One matcher powers the whole library:

* evaluating tgd and egd premises during the chase,
* evaluating conjunctive queries,
* finding homomorphisms (an instance is matched as the canonical query of
  itself, cf. Chandra-Merlin, reference [3] of the paper).

The matcher enumerates all assignments ``θ`` of the pattern variables
to values of the instance such that every pattern atom ``A`` satisfies
``θ(A) ∈ I`` and every inequality ``s ≠ t`` satisfies ``θ(s) ≠ θ(t)``.
It answers in value tuples: :func:`match` yields ``θ`` of the variables
it is asked for, one tuple per match, and :func:`exists_match` decides
whether a match exists.  Pre-bound variables are a name-ordered tuple
seeded from a tuple of values.

Both look up the **compiled plan** of :mod:`repro.logic.plans` for
their (pattern, inequalities, pre-bound variables) triple -- compiled
once: static fail-first join order, slot arrays, index-probe programs,
O(1) ground probes -- and run it through one dispatch pair,
:func:`match_plan` and :func:`exists_plan`.  Owners of a fixed pattern
(a tgd's conclusion check, an egd's premise, a semi-naive seed, a
block-kernel round) resolve their plan once and call the pair directly.
The pair is the one place that picks the executor: the compiled plan,
or, when :func:`repro.logic.plans.enabled` is False, the original
interpreted matcher below over the plan's patterns, inequalities and
pre-bound variables.  That matcher stays as the **reference oracle**
(:func:`match_interpreted`): at each step it picks
the *most constrained* remaining atom -- the one with the fewest
candidate instance atoms given the current partial assignment --
using the instance's (relation, position, value) index.  The hypothesis
parity suite asserts the two enumerate identical tuple sets.

Every executor adds each candidate it tries and each backtrack it takes,
as it happens, to one ``(candidates, backtracks)`` counter pair: that of
the innermost ``attributed`` block, or else the unregistered
:data:`repro.logic.plans.UNSCOPED` pair.  When **attributed execution**
is on (:func:`repro.obs.attribution.enabled`, the ``repro explain-plan``
path), the same compiled executor also charges per-step
probe/candidate/row counts and self-time to the plan's record in the
attribution table -- see :meth:`repro.logic.plans.CompiledPattern._run`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.terms import Term, Value, Variable
from ..obs import Counter, counter
from . import plans

Inequality = Tuple[Term, Term]

# Telemetry attribution.  The matcher serves several masters (chase
# premise evaluation, query evaluation, homomorphism search); an
# ``attributed`` block installs the counter pair (``<scope>.candidates``
# / ``<scope>.backtracks``) that a match() started inside it counts into.
#
# The registry is a bounded LRU of *handles*: the counters themselves
# live in the repro.obs registry; evicting a handle here only means the
# next use of that scope re-fetches it.  Long-running multi-scenario
# processes (one scope per scenario name, say) therefore cannot grow
# this dict without limit.
_SCOPE_LIMIT = 64
_SCOPE_COUNTERS: "OrderedDict[str, Tuple[Counter, Counter]]" = OrderedDict()

#: The counter pair of the innermost ``attributed`` block, or None.
_ACTIVE_COUNTERS: Optional[Tuple[Counter, Counter]] = None


def _scope_counters(scope: str) -> Tuple[Counter, Counter]:
    pair = _SCOPE_COUNTERS.get(scope)
    if pair is None:
        pair = (counter(scope + ".candidates"), counter(scope + ".backtracks"))
        _SCOPE_COUNTERS[scope] = pair
        if len(_SCOPE_COUNTERS) > _SCOPE_LIMIT:
            _SCOPE_COUNTERS.popitem(last=False)
    else:
        _SCOPE_COUNTERS.move_to_end(scope)
    return pair


class attributed:
    """Count matcher work under ``scope`` within the block.

    A hand-rolled context manager (not ``@contextmanager``) because it
    wraps individual homomorphism searches -- core folding enters it
    once per retract attempt.
    """

    __slots__ = ("_scope", "_previous")

    def __init__(self, scope: str):
        self._scope = scope

    def __enter__(self) -> None:
        global _ACTIVE_COUNTERS
        self._previous = _ACTIVE_COUNTERS
        _ACTIVE_COUNTERS = _scope_counters(self._scope)

    def __exit__(self, *exc_info) -> bool:
        global _ACTIVE_COUNTERS
        _ACTIVE_COUNTERS = self._previous
        return False


def _candidate_count(pattern: Atom, instance: Instance, bound: Dict[Variable, Value]) -> int:
    """Upper bound on the number of instance atoms matching ``pattern``."""
    best = instance.count_of(pattern.relation)
    for position, arg in enumerate(pattern.args):
        if isinstance(arg, Value):
            value = arg
        elif isinstance(arg, Variable) and arg in bound:
            value = bound[arg]
        else:
            continue
        count = instance.count_with(pattern.relation, position, value)
        if count < best:
            best = count
    return best


def _candidates(pattern: Atom, instance: Instance, bound: Dict[Variable, Value]) -> Iterable[Atom]:
    """Instance atoms that could match ``pattern`` under ``bound``."""
    best_key: Optional[Tuple[int, Value]] = None
    best_count = instance.count_of(pattern.relation)
    for position, arg in enumerate(pattern.args):
        if isinstance(arg, Value):
            value = arg
        elif isinstance(arg, Variable) and arg in bound:
            value = bound[arg]
        else:
            continue
        count = instance.count_with(pattern.relation, position, value)
        if count < best_count:
            best_count = count
            best_key = (position, value)
    if best_key is None:
        return instance.atoms_of(pattern.relation)
    return instance.atoms_with(pattern.relation, best_key[0], best_key[1])


def _unify(pattern: Atom, fact: Atom, bound: Dict[Variable, Value]) -> Optional[List[Tuple[Variable, Value]]]:
    """Try to match ``pattern`` against ``fact``; return new bindings or None."""
    new_bindings: List[Tuple[Variable, Value]] = []
    local: Dict[Variable, Value] = {}
    for pattern_arg, fact_arg in zip(pattern.args, fact.args):
        if isinstance(pattern_arg, Value):
            if pattern_arg != fact_arg:
                return None
        else:
            current = bound.get(pattern_arg, local.get(pattern_arg))
            if current is None:
                local[pattern_arg] = fact_arg
                new_bindings.append((pattern_arg, fact_arg))
            elif current != fact_arg:
                return None
    return new_bindings


def _resolve(term: Term, bound: Dict[Variable, Value]) -> Optional[Value]:
    if isinstance(term, Value):
        return term
    return bound.get(term)


def _inequalities_hold(
    inequalities: Sequence[Inequality], bound: Dict[Variable, Value]
) -> bool:
    """True unless some inequality is *violated* by fully bound terms."""
    for left, right in inequalities:
        left_value = _resolve(left, bound)
        right_value = _resolve(right, bound)
        if left_value is not None and right_value is not None:
            if left_value == right_value:
                return False
    return True


def _search(
    remaining: List[Atom],
    instance: Instance,
    bound: Dict[Variable, Value],
    inequalities: Sequence[Inequality],
    candidates: Counter,
    backtracks: Counter,
) -> Iterator[Dict[Variable, Value]]:
    """The backtracking search, counting work into the given pair.

    A candidate is one instance atom tried against the chosen pattern;
    a backtrack is a candidate that failed to unify, or the undoing of
    a non-empty partial binding after its subtree was exhausted.
    """
    if not remaining:
        yield dict(bound)
        return
    # Fail-first: most constrained atom next.
    index = min(
        range(len(remaining)),
        key=lambda i: _candidate_count(remaining[i], instance, bound),
    )
    pattern = remaining.pop(index)
    try:
        for fact in _candidates(pattern, instance, bound):
            candidates.value += 1
            new_bindings = _unify(pattern, fact, bound)
            if new_bindings is None:
                backtracks.value += 1
                continue
            for variable, value in new_bindings:
                bound[variable] = value
            if _inequalities_hold(inequalities, bound):
                yield from _search(
                    remaining, instance, bound, inequalities,
                    candidates, backtracks,
                )
            if new_bindings:
                backtracks.value += 1
            for variable, _ in new_bindings:
                del bound[variable]
    finally:
        remaining.insert(index, pattern)


def _interpreted(
    patterns: Sequence[Atom],
    instance: Instance,
    variables: Tuple[Variable, ...],
    prebound: Tuple[Variable, ...],
    values: Sequence[Value],
    inequalities: Sequence[Inequality],
    counters: Tuple[Counter, Counter],
) -> Iterator[Tuple[Value, ...]]:
    """The interpreted search behind :func:`match`'s signature, over
    checked pre-bound variables and values (:func:`_check_prebound`)."""
    bound: Dict[Variable, Value] = dict(zip(prebound, values))
    if not _inequalities_hold(inequalities, bound):
        return
    for result in _search(
        list(patterns), instance, bound, inequalities, *counters
    ):
        yield tuple([result[variable] for variable in variables])


def _check_prebound(
    prebound: Tuple[Variable, ...], values: Sequence[Value]
) -> None:
    """Reject pre-bound variables out of name order (or repeated) and
    values that are too few, too many, or not values.

    Values bind to the pre-bound variables in name order, so any other
    order would silently bind the wrong variables.
    """
    for earlier, later in zip(prebound, prebound[1:]):
        if not earlier.name < later.name:
            raise ValueError(
                f"pre-bound variables must be in name order, got {prebound!r}"
            )
    _check_values(prebound, values)


def _check_values(
    prebound: Tuple[Variable, ...], values: Sequence[Value]
) -> None:
    """Reject values that are too few, too many, or not values, for
    pre-bound variables already known to be in name order (a held
    plan's, such as a tgd's frontier)."""
    if len(values) != len(prebound):
        raise ValueError(
            f"{len(prebound)} pre-bound values expected, got {len(values)}"
        )
    for value in values:
        if not isinstance(value, Value):
            raise TypeError(f"pre-bound values must be values, got {value!r}")


def match_plan(
    plan: plans.CompiledPattern,
    instance: Instance,
    variables: Tuple[Variable, ...],
    values: Sequence[Value] = (),
    *,
    without: Optional[Atom] = None,
) -> Iterator[Tuple[Value, ...]]:
    """The values of ``variables`` per match of ``plan`` in ``instance``.

    ``values`` are those of ``plan.prebound``, in that order; they are
    not checked (:func:`match` checks them).  This and
    :func:`exists_plan` are the one place that picks the executor: the
    compiled plan, or under :class:`repro.logic.plans.interpreted_only`
    the interpreted search over ``plan.patterns``, ``plan.inequalities``
    and ``plan.prebound``, run on a copy less ``without`` when that is
    given.  Work counts into the active ``attributed`` pair, bound when
    the generator starts.
    """
    counters = _ACTIVE_COUNTERS or plans.UNSCOPED
    if plans.enabled():
        yield from plan.project(instance, variables, values, counters, without)
        return
    if without is not None:
        instance = instance.copy()
        instance.discard(without)
    yield from _interpreted(
        plan.patterns, instance, variables, plan.prebound, values,
        plan.inequalities, counters,
    )


def exists_plan(
    plan: plans.CompiledPattern,
    instance: Instance,
    values: Sequence[Value] = (),
) -> bool:
    """True if :func:`match_plan` would yield at least once.

    Stops at the first match, counting exactly the work of taking one
    item from :func:`match_plan`.
    """
    counters = _ACTIVE_COUNTERS or plans.UNSCOPED
    if plans.enabled():
        return plan.exists(instance, values, counters)
    for _ in _interpreted(
        plan.patterns, instance, (), plan.prebound, values,
        plan.inequalities, counters,
    ):
        return True
    return False


def match(
    patterns: Sequence[Atom],
    instance: Instance,
    variables: Tuple[Variable, ...],
    *,
    prebound: Tuple[Variable, ...] = (),
    values: Sequence[Value] = (),
    inequalities: Sequence[Inequality] = (),
    without: Optional[Atom] = None,
) -> Iterator[Tuple[Value, ...]]:
    """The values of ``variables`` per match of ``patterns`` in ``instance``.

    ``prebound`` fixes variables before the search: a tuple in name
    order (else ``ValueError``), bound to the values ``values`` in
    that order (used when chasing: the premise is matched, then the
    conclusion is checked with its frontier fixed).  ``inequalities``
    are checked as soon as both sides become bound, so they prune the
    search rather than filter afterwards.  Each of ``variables`` must be
    pre-bound or occur in ``patterns``.

    ``without`` is one atom to match around: the matches are those into
    ``instance`` less that atom, and the work counted is that of a
    search on a copy with it discarded, but ``instance`` is not written
    to.  It serves the block kernel's retract attempts
    (:func:`repro.homomorphism.blocks.minimize_block`).  Under
    :class:`repro.logic.plans.interpreted_only` the reference search
    runs on such a copy.

    With ``variables=()`` every match yields ``()``, which is falsy:
    ``any(match(patterns, instance, ()))`` is False even when a match
    exists.  Ask :func:`exists_match` instead.

    >>> from repro.logic import parse_instance
    >>> from repro.core import Atom, RelationSymbol, Variable
    >>> E, x, y = RelationSymbol("E", 2), Variable("x"), Variable("y")
    >>> edges = parse_instance("E('a','b'), E('b','b')")
    >>> list(match((Atom(E, (x, y)),), edges, (y, x), inequalities=((x, y),)))
    [(Const('b'), Const('a'))]
    """
    _check_prebound(prebound, values)
    return match_plan(
        plans.plan_for(patterns, inequalities, prebound),
        instance,
        variables,
        values,
        without=without,
    )


def exists_match(
    patterns: Sequence[Atom],
    instance: Instance,
    *,
    prebound: Tuple[Variable, ...] = (),
    values: Sequence[Value] = (),
    inequalities: Sequence[Inequality] = (),
) -> bool:
    """True if :func:`match` would yield at least once.

    Stops at the first match, counting exactly the work of taking one
    item from :func:`match`.
    """
    _check_prebound(prebound, values)
    return exists_plan(
        plans.plan_for(patterns, inequalities, prebound), instance, values
    )


def match_interpreted(
    patterns: Sequence[Atom],
    instance: Instance,
    variables: Tuple[Variable, ...],
    *,
    prebound: Tuple[Variable, ...] = (),
    values: Sequence[Value] = (),
    inequalities: Sequence[Inequality] = (),
) -> Iterator[Tuple[Value, ...]]:
    """The interpreted reference matcher, bypassing compiled plans.

    Same contract as :func:`match`.  The parity suite diffs the two;
    keep this path semantically frozen.  Its work is counted into the
    unregistered ``plans.UNSCOPED`` pair whatever scope is active.
    """
    _check_prebound(prebound, values)
    return _interpreted(
        patterns, instance, variables, prebound, values, inequalities,
        plans.UNSCOPED,
    )

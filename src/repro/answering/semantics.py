"""The four CWA query answering semantics (Section 7.1).

For a data exchange setting D, a source instance S and a query Q over
the target schema, with ``S_CWA`` the set of CWA-solutions:

* **certain answers**            ``certain□(Q,S) = ⋂_{T ∈ S_CWA} □Q(T)``
* **potential certain answers**  ``certain◇(Q,S) = ⋃_{T ∈ S_CWA} □Q(T)``
* **persistent maybe answers**   ``maybe□(Q,S)  = ⋂_{T ∈ S_CWA} ◇Q(T)``
* **maybe answers**              ``maybe◇(Q,S)  = ⋃_{T ∈ S_CWA} ◇Q(T)``

Theorem 7.1 reduces the □-intersections to the minimal CWA-solution
(the core) and, for the restricted classes of Proposition 5.4, the
◇-unions to CanSol.  This module implements both the direct definitions
(over an explicit or enumerated solution space) and the fast paths, so
tests can cross-validate them.

:func:`all_four_semantics` shares the work the four definitions have in
common.  Two halves each compute one input once and walk each of its
possible worlds once, folding every ``Q(R)`` into a □ (∩) and a ◇ (∪)
accumulator together:

* the core half: ``Core_D(S)`` once, one walk over ``Rep_D(Core)``,
  giving ``certain□ = □Q(Core)`` and ``maybe□ = ◇Q(Core)``;
* the space half: the solution space once (``solutions=``, else CanSol
  for Proposition 5.4's classes, else one enumeration) and one walk per
  member, giving ``certain◇ = ⋃ □Q(T)`` and ``maybe◇ = ⋃ ◇Q(T)``.

Both halves read one chase of S, ``solve(..., compute_core=False)``,
run on the first half that needs it.  The core half folds its canonical
solution into the core (the block pass ``solve`` runs); the space half
enumerates into it, or, for Proposition 5.4's full-tgd-and-egd class,
takes it as CanSol.  Only for egds-only settings is CanSol built apart
from the chase, by :func:`~repro.cwa.solution.cansol`'s firing of every
s-t justification.  With a ``cache`` a half runs lazily, on the first
verdict it misses, and the space half alone computes no core.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import ReproError
from ..core.instance import Instance
from ..cwa.enumeration import enumerate_cwa_solutions_into
from ..cwa.solution import cansol
from ..exchange.setting import DataExchangeSetting
from ..exchange.solve import ExchangeResult, solve
from ..homomorphism.blocks import blockwise_core
from ..logic.queries import AnswerSet, Query
from ..obs import counter, span
from .valuations import certain_and_maybe_on, certain_on, maybe_on


class NoCwaSolutionError(ReproError):
    """Query answering was requested but no CWA-solution exists."""


def _no_solution() -> NoCwaSolutionError:
    return NoCwaSolutionError(
        "no CWA-solution exists for this source instance"
    )


Chase = Callable[[], ExchangeResult]


def _chase(setting: DataExchangeSetting, source: Instance) -> Chase:
    """One lazy chase of S without its core: run on the first call,
    then reused."""
    return lru_cache(maxsize=None)(
        lambda: solve(setting, source, compute_core=False)
    )


def _core(exchange: Chase) -> Instance:
    """``Core_D(S)``, the minimal CWA-solution: the chase's canonical
    solution folded by :func:`blockwise_core`, as :func:`solve` folds
    it; raises if none exists."""
    canonical = exchange().canonical_solution
    if canonical is None:
        raise _no_solution()
    return blockwise_core(canonical)


def _cansol(
    setting: DataExchangeSetting, source: Instance, exchange: Chase
) -> Instance:
    """``CanSol_D(S)``, maximal in Proposition 5.4's classes; raises if
    no CWA-solution exists.

    For egds-only settings it is :func:`cansol`'s construction; for the
    full-tgd-and-egd class it is the chase's canonical solution, which
    is what :func:`cansol` returns there.
    """
    if setting.target_dependencies_are_egds_only:
        maximal = cansol(setting, source)
    else:
        maximal = exchange().canonical_solution
    if maximal is None:
        raise _no_solution()
    return maximal


def _solution_space(
    setting: DataExchangeSetting,
    source: Instance,
    solutions: Optional[Sequence[Instance]],
    exchange: Chase,
) -> List[Instance]:
    """``solutions``, else the CWA-solutions enumerated into the chase's
    canonical solution; raises when the space is empty."""
    if solutions is not None:
        found = list(solutions)
    else:
        found = enumerate_cwa_solutions_into(
            setting, source, exchange().canonical_solution
        )
    if not found:
        raise _no_solution()
    return found


def certain_answers(
    setting: DataExchangeSetting,
    source: Instance,
    query: Query,
) -> AnswerSet:
    """``certain□(Q, S)``, via Theorem 7.1: ``□Q(Core_D(S))``."""
    with span("answering.certain"):
        return certain_on(
            query, _core(_chase(setting, source)), setting.target_dependencies
        )


def persistent_maybe_answers(
    setting: DataExchangeSetting,
    source: Instance,
    query: Query,
) -> AnswerSet:
    """``maybe□(Q, S)``, via Theorem 7.1: ``◇Q(Core_D(S))``."""
    with span("answering.persistent_maybe"):
        return maybe_on(
            query, _core(_chase(setting, source)), setting.target_dependencies
        )


def potential_certain_answers(
    setting: DataExchangeSetting,
    source: Instance,
    query: Query,
    *,
    solutions: Optional[Sequence[Instance]] = None,
) -> AnswerSet:
    """``certain◇(Q, S)``.

    Fast path (Theorem 7.1): ``□Q(CanSol_D(S))`` when the setting is in
    one of Proposition 5.4's classes.  Otherwise the union over the
    CWA-solution space is computed directly -- pass ``solutions`` to
    reuse an enumerated space, or let the function enumerate one (small
    inputs only; maximal CWA-solutions may not exist, Example 5.3).
    """
    with span("answering.potential_certain"):
        exchange = _chase(setting, source)
        if solutions is None and _cansol_applies(setting):
            return certain_on(
                query,
                _cansol(setting, source, exchange),
                setting.target_dependencies,
            )
        space = _solution_space(setting, source, solutions, exchange)
        return answers_over_space(
            query, space, setting.target_dependencies, "potential_certain"
        )


def maybe_answers(
    setting: DataExchangeSetting,
    source: Instance,
    query: Query,
    *,
    solutions: Optional[Sequence[Instance]] = None,
) -> AnswerSet:
    """``maybe◇(Q, S)`` -- same strategy as
    :func:`potential_certain_answers`, with ◇Q in place of □Q."""
    with span("answering.maybe"):
        exchange = _chase(setting, source)
        if solutions is None and _cansol_applies(setting):
            return maybe_on(
                query,
                _cansol(setting, source, exchange),
                setting.target_dependencies,
            )
        space = _solution_space(setting, source, solutions, exchange)
        return answers_over_space(
            query, space, setting.target_dependencies, "maybe"
        )


def _cansol_applies(setting: DataExchangeSetting) -> bool:
    return (
        setting.target_dependencies_are_egds_only
        or setting.is_full_and_egd_setting
    )


SEMANTICS_NAMES = ("certain", "potential_certain", "persistent_maybe", "maybe")


def _cached_answers(cache, key: str, compute) -> AnswerSet:
    """Look one answer set up in the ``answers`` cache family.

    The answer set itself is the entry's decoded value: an in-process
    hit returns the frozenset without touching the JSON codec.
    """
    from ..io import answers_to_json

    answers = cache.get_value("answers", key, _answers_from_payload)
    if answers is not None:
        counter("answering.cache_hits").inc()
        return answers
    answers = frozenset(compute())
    cache.put("answers", key, {"rows": answers_to_json(answers)}, answers)
    return answers


def _answers_from_payload(payload: dict) -> Optional[AnswerSet]:
    """Decode an ``answers`` entry; None when it is unusable."""
    from ..io import answers_from_json

    try:
        return answers_from_json(payload["rows"])
    except (ReproError, KeyError, TypeError, ValueError):
        return None


def _core_pair(
    setting: DataExchangeSetting,
    query: Query,
    exchange: Chase,
) -> Tuple[AnswerSet, AnswerSet]:
    """``(certain□, maybe□)``: one walk over the core's worlds (Thm 7.1)."""
    with span("answering.over_core"):
        return certain_and_maybe_on(
            query, _core(exchange), setting.target_dependencies
        )


def _space_pair(
    setting: DataExchangeSetting,
    source: Instance,
    query: Query,
    solutions: Optional[Sequence[Instance]],
    exchange: Chase,
) -> Tuple[AnswerSet, AnswerSet]:
    """``(certain◇, maybe◇)``: one walk over each solution's worlds.

    The space is CanSol alone when Theorem 7.1 applies, as in
    :func:`potential_certain_answers` and :func:`maybe_answers`;
    otherwise ``solutions``, or the space enumerated into the canonical
    solution of ``exchange``, the chase the core half reads too.
    """
    with span("answering.over_space"):
        if solutions is None and _cansol_applies(setting):
            return certain_and_maybe_on(
                query,
                _cansol(setting, source, exchange),
                setting.target_dependencies,
            )
        per_target = _per_solution(
            query,
            _solution_space(setting, source, solutions, exchange),
            setting.target_dependencies,
        )
        boxes = frozenset().union(*(box for box, _ in per_target))
        diamonds = frozenset().union(*(diamond for _, diamond in per_target))
        return boxes, diamonds


def all_four_semantics(
    setting: DataExchangeSetting,
    source: Instance,
    query: Query,
    *,
    solutions: Optional[Sequence[Instance]] = None,
    cache=None,
) -> dict:
    """All four answer sets at once (used by examples and benchmarks).

    Equal to the four single-semantics functions, but the chase, the
    core, the solution space and each world are computed once, not
    twice or four times (see the module docstring; for egds-only
    settings CanSol is built apart from the chase).

    Corollary 7.2 guarantees the chain
    ``certain□ ⊆ certain◇ ⊆ maybe□ ⊆ maybe◇``; the property tests check
    it on every evaluated query.

    ``cache`` memoizes each of the four verdicts under an
    :func:`repro.engine.fingerprint.answer_key`.
    """
    exchange = _chase(setting, source)
    core_pair = lru_cache(maxsize=None)(
        lambda: _core_pair(setting, query, exchange)
    )
    space_pair = lru_cache(maxsize=None)(
        lambda: _space_pair(setting, source, query, solutions, exchange)
    )
    computations = {
        "certain": lambda: core_pair()[0],
        "potential_certain": lambda: space_pair()[0],
        "persistent_maybe": lambda: core_pair()[1],
        "maybe": lambda: space_pair()[1],
    }
    if cache is None:
        return {name: compute() for name, compute in computations.items()}
    from ..engine.fingerprint import answer_key  # lazy: engine is optional

    return {
        name: _cached_answers(
            cache,
            answer_key(setting, source, query, name, solutions=solutions),
            compute,
        )
        for name, compute in computations.items()
    }


def _per_solution(
    query: Query,
    space: List[Instance],
    target_dependencies,
    box_only: bool = False,
) -> List[Tuple[AnswerSet, Optional[AnswerSet]]]:
    """Each solution's ``(□Q, ◇Q)``, in solution order.

    ``box_only`` computes □Q alone, with :func:`certain_on`'s early exit,
    and puts None in place of ◇Q.
    """
    target_dependencies = tuple(target_dependencies)
    if box_only:
        return [
            (certain_on(query, target, target_dependencies), None)
            for target in space
        ]
    return [
        certain_and_maybe_on(query, target, target_dependencies)
        for target in space
    ]


def answers_over_space(
    query: Query,
    solutions: Iterable[Instance],
    target_dependencies,
    mode: str,
) -> AnswerSet:
    """Direct-definition evaluation over an explicit solution space.

    ``mode`` is one of ``"certain"`` (⋂□), ``"potential_certain"`` (⋃□),
    ``"persistent_maybe"`` (⋂◇), ``"maybe"`` (⋃◇); any other name raises
    :class:`ReproError`.  Used by tests to cross-validate the fast paths
    of Theorem 7.1.
    """
    if mode not in SEMANTICS_NAMES:
        raise ReproError(
            f"unknown semantics {mode!r}; pick one of {SEMANTICS_NAMES}"
        )
    box = mode in ("certain", "potential_certain")
    intersect = mode in ("certain", "persistent_maybe")
    per_target = _per_solution(
        query, list(solutions), target_dependencies, box_only=box
    )
    result: Optional[frozenset] = None
    for pair in per_target:
        answers = pair[0 if box else 1]
        if result is None:
            result = answers
        elif intersect:
            result &= answers
        else:
            result |= answers
    if result is None:
        raise NoCwaSolutionError("empty solution space")
    return result

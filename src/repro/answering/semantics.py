"""The four CWA query answering semantics (Section 7.1).

For a data exchange setting D, a source instance S and a query Q over
the target schema, with ``S_CWA`` the set of CWA-solutions:

* **certain answers**            ``certain□(Q,S) = ⋂_{T ∈ S_CWA} □Q(T)``
* **potential certain answers**  ``certain◇(Q,S) = ⋃_{T ∈ S_CWA} □Q(T)``
* **persistent maybe answers**   ``maybe□(Q,S)  = ⋂_{T ∈ S_CWA} ◇Q(T)``
* **maybe answers**              ``maybe◇(Q,S)  = ⋃_{T ∈ S_CWA} ◇Q(T)``

Theorem 7.1 reduces the □-intersections to the minimal CWA-solution
(the core) and, for the restricted classes of Proposition 5.4, the
◇-unions to CanSol.  :func:`solutions_for` is the one place that
applies it: it returns the CWA-solutions a semantics is answered on,
and every answering path folds its list -- the four single-semantics
functions, :func:`all_four_semantics`, the membership tests of
:mod:`~repro.answering.decision`, the PTIME UCQ and datalog answers and
the 3-SAT deciders of :mod:`~repro.reductions.threesat`.
:func:`answers_over_space` is the direct definition over any explicit
space, so tests can cross-validate the two.

:func:`all_four_semantics` shares the work the four definitions have in
common.  Two halves each read one list once and walk each of its
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


SEMANTICS_NAMES = ("certain", "potential_certain", "persistent_maybe", "maybe")

#: The semantics that intersect over the CWA-solutions, so that Theorem
#: 7.1 answers them on the core alone.
INTERSECTING = ("certain", "persistent_maybe")

#: The semantics that read ``□Q(T)`` of each solution T; the others
#: read ``◇Q(T)``.
BOX = ("certain", "potential_certain")

Chase = Callable[[], ExchangeResult]


def _require_known(semantics: str) -> None:
    if semantics not in SEMANTICS_NAMES:
        raise ReproError(
            f"unknown semantics {semantics!r}; pick one of {SEMANTICS_NAMES}"
        )


def _chase(setting: DataExchangeSetting, source: Instance) -> Chase:
    """One lazy chase of S without its core: run on the first call,
    then reused."""
    return lru_cache(maxsize=None)(
        lambda: solve(setting, source, compute_core=False)
    )


def solutions_for(
    setting: DataExchangeSetting,
    source: Instance,
    semantics: str,
    *,
    solutions: Optional[Sequence[Instance]] = None,
    exchange: Optional[Chase] = None,
) -> List[Instance]:
    """The CWA-solutions ``semantics`` is answered on (Theorem 7.1).

    * certain□ and maybe□ (the intersections): ``[Core_D(S)]``, the
      chase's canonical solution folded by :func:`blockwise_core`, as
      :func:`solve` folds it; ``solutions`` is not read;
    * certain◇ and maybe◇ (the unions): ``solutions`` when given, else
      ``[CanSol_D(S)]`` in Proposition 5.4's classes, else the
      CWA-solutions enumerated into the chase's canonical solution.
      CanSol is :func:`cansol`'s construction for egds-only settings
      and the chase's canonical solution for the full-tgd-and-egd
      class, which is what :func:`cansol` returns there.

    ``exchange`` is the lazy chase of S (:func:`_chase`) of a caller
    that reads several semantics; by default the call chases on its
    own.  Every answering path -- the four semantics, their membership
    tests, the PTIME UCQ and datalog answers and the 3-SAT deciders --
    reads this list.  Raises :class:`NoCwaSolutionError` when it would
    be empty.
    """
    _require_known(semantics)
    if exchange is None:
        exchange = _chase(setting, source)
    if semantics in INTERSECTING:
        canonical = exchange().canonical_solution
        found = [] if canonical is None else [blockwise_core(canonical)]
    elif solutions is not None:
        found = list(solutions)
    elif _cansol_applies(setting):
        maximal = (
            cansol(setting, source)
            if setting.target_dependencies_are_egds_only
            else exchange().canonical_solution
        )
        found = [] if maximal is None else [maximal]
    else:
        found = enumerate_cwa_solutions_into(
            setting, source, exchange().canonical_solution
        )
    if not found:
        raise _no_solution()
    return found


def _answers(
    setting: DataExchangeSetting,
    source: Instance,
    query: Query,
    semantics: str,
    solutions: Optional[Sequence[Instance]] = None,
) -> AnswerSet:
    return answers_over_space(
        query,
        solutions_for(setting, source, semantics, solutions=solutions),
        setting.target_dependencies,
        semantics,
    )


def certain_answers(
    setting: DataExchangeSetting,
    source: Instance,
    query: Query,
) -> AnswerSet:
    """``certain□(Q, S)``, via Theorem 7.1: ``□Q(Core_D(S))``."""
    with span("answering.certain"):
        return _answers(setting, source, query, "certain")


def persistent_maybe_answers(
    setting: DataExchangeSetting,
    source: Instance,
    query: Query,
) -> AnswerSet:
    """``maybe□(Q, S)``, via Theorem 7.1: ``◇Q(Core_D(S))``.

    Constants outside the anchor set (those of the solution, of ``Q``
    and of the target dependencies) are reported as generic witnesses
    ``_cN``, so ``ū in persistent_maybe_answers(...)`` is no membership
    test; :func:`~repro.answering.decision.persistent_maybe_language` is.
    """
    with span("answering.persistent_maybe"):
        return _answers(setting, source, query, "persistent_maybe")


def potential_certain_answers(
    setting: DataExchangeSetting,
    source: Instance,
    query: Query,
    *,
    solutions: Optional[Sequence[Instance]] = None,
) -> AnswerSet:
    """``certain◇(Q, S)``: ``⋃ □Q(T)`` over :func:`solutions_for`.

    That is ``□Q(CanSol_D(S))`` (Theorem 7.1) when the setting is in one
    of Proposition 5.4's classes; otherwise the union over the
    CWA-solution space -- pass ``solutions`` to reuse an enumerated
    space, or let the function enumerate one (small inputs only;
    maximal CWA-solutions may not exist, Example 5.3).
    """
    with span("answering.potential_certain"):
        return _answers(
            setting, source, query, "potential_certain", solutions
        )


def maybe_answers(
    setting: DataExchangeSetting,
    source: Instance,
    query: Query,
    *,
    solutions: Optional[Sequence[Instance]] = None,
) -> AnswerSet:
    """``maybe◇(Q, S)`` -- as :func:`potential_certain_answers`, with
    ◇Q in place of □Q.

    Constants outside the anchor set show up as generic witnesses
    ``_cN``, as in :func:`persistent_maybe_answers`; decide a concrete
    ``ū`` with :func:`~repro.answering.decision.maybe_language`.
    """
    with span("answering.maybe"):
        return _answers(setting, source, query, "maybe", solutions)


def _cansol_applies(setting: DataExchangeSetting) -> bool:
    return (
        setting.target_dependencies_are_egds_only
        or setting.is_full_and_egd_setting
    )


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

    def half(semantics: str, name: str):
        """``(⋃ □Q(T), ⋃ ◇Q(T))`` over the solutions of ``semantics``,
        one walk over each solution's worlds, run on the first call.
        For an intersecting semantics the solutions are the core alone,
        so the unions are ``(certain□, maybe□)``."""

        @lru_cache(maxsize=None)
        def walk() -> Tuple[AnswerSet, AnswerSet]:
            with span(name):
                pairs = [
                    certain_and_maybe_on(
                        query, target, setting.target_dependencies
                    )
                    for target in solutions_for(
                        setting,
                        source,
                        semantics,
                        solutions=solutions,
                        exchange=exchange,
                    )
                ]
            return (
                frozenset().union(*(box for box, _ in pairs)),
                frozenset().union(*(diamond for _, diamond in pairs)),
            )

        return walk

    core_pair = half("certain", "answering.over_core")
    space_pair = half("maybe", "answering.over_space")
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


def answers_over_space(
    query: Query,
    solutions: Iterable[Instance],
    target_dependencies,
    mode: str,
) -> AnswerSet:
    """Direct-definition evaluation over an explicit solution space.

    ``mode`` is one of ``"certain"`` (⋂□), ``"potential_certain"`` (⋃□),
    ``"persistent_maybe"`` (⋂◇), ``"maybe"`` (⋃◇); any other name raises
    :class:`ReproError`.  The four single-semantics functions fold it
    over :func:`solutions_for`; tests pass it whole spaces to
    cross-validate Theorem 7.1.  A □ mode walks each solution with
    :func:`certain_on`'s early exit.
    """
    _require_known(mode)
    on = certain_on if mode in BOX else maybe_on
    target_dependencies = tuple(target_dependencies)
    per_target = [
        on(query, target, target_dependencies) for target in solutions
    ]
    if not per_target:
        raise NoCwaSolutionError("empty solution space")
    fold = frozenset.intersection if mode in INTERSECTING else frozenset.union
    return fold(*per_target)

"""Polynomial-time query answering for unions of conjunctive queries.

Theorem 7.6 / Lemma 7.7: for a weakly acyclic setting D, a source
instance S, a union of conjunctive queries Q (no inequalities) and *any*
CWA-solution T,

    ``certain□(Q, S) = certain◇(Q, S) = □Q(T) = Q(T)↓``

where ``Q(T)↓`` is the naive evaluation of Q on T keeping only the
null-free tuples.  This gives the PTIME procedure: chase, take a
CWA-solution (we use the core, Theorem 5.1), evaluate naively, drop
tuples with nulls.

The classical OWA semantics for UCQs coincides with ``Q(U)↓`` on any
universal solution U (Fagin et al. [6]), so ``u_certain_answers`` skips
the core computation.
"""

from __future__ import annotations

from typing import Optional

from ..core.errors import UnsupportedQueryError
from ..core.instance import Instance
from ..exchange.setting import DataExchangeSetting
from ..logic.queries import (
    AnswerSet,
    ConjunctiveQuery,
    Query,
    UnionOfConjunctiveQueries,
)
from .semantics import NoCwaSolutionError, solutions_for


def _require_pure_ucq(query: Query) -> None:
    if isinstance(query, ConjunctiveQuery):
        if query.has_inequalities:
            raise UnsupportedQueryError(
                "the PTIME algorithm of Theorem 7.6 requires a UCQ without "
                "inequalities; with even one inequality the problem is "
                "co-NP-hard (Theorem 7.5)"
            )
        return
    if isinstance(query, UnionOfConjunctiveQueries):
        if not query.is_pure_ucq:
            raise UnsupportedQueryError(
                "the PTIME algorithm of Theorem 7.6 requires a UCQ without "
                "inequalities"
            )
        return
    raise UnsupportedQueryError(
        f"expected a (union of) conjunctive quer(ies), got {type(query).__name__}"
    )


def ucq_certain_answers(
    setting: DataExchangeSetting,
    source: Instance,
    query: Query,
    *,
    solution: Optional[Instance] = None,
) -> AnswerSet:
    """``certain□(Q,S) = certain◇(Q,S)`` for a pure UCQ, in PTIME.

    Pass ``solution`` to reuse an already-computed CWA-solution;
    otherwise the core of :func:`solutions_for` is used.
    """
    _require_pure_ucq(query)
    if solution is None:
        (solution,) = solutions_for(setting, source, "certain")
    return query.certain_part(solution)


def u_certain_answers(
    setting: DataExchangeSetting,
    source: Instance,
    query: Query,
) -> AnswerSet:
    """``u-certain_D(Q, S)`` of [7] for a pure UCQ: ``Q(U)↓`` on the
    canonical universal solution."""
    _require_pure_ucq(query)
    canonical = setting.canonical_universal_solution(source)
    if canonical is None:
        raise NoCwaSolutionError(
            "no universal solution exists for this source instance"
        )
    return query.certain_part(canonical)


def owa_certain_answers(
    setting: DataExchangeSetting,
    source: Instance,
    query: Query,
) -> AnswerSet:
    """The classical certain answers of [6] for a pure UCQ.

    For UCQs these coincide with ``Q(U)↓`` on a universal solution --
    the anomalies of Section 3 need queries beyond UCQs to show up.
    """
    return u_certain_answers(setting, source, query)

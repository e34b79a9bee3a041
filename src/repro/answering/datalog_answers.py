"""Certain answers of datalog queries (the full reach of Theorem 7.6).

Theorem 7.6 covers "potentially infinite disjunctions of conjunctive
queries ... which in particular comprises the class of datalog queries".
Datalog queries are monotone and preserved under homomorphisms, so
Lemma 7.7's argument goes through unchanged:

    certain□(P, S) = certain◇(P, S) = P(T)↓

for every CWA-solution T.  The procedure below chases, takes the core
(a CWA-solution by Theorem 5.1), runs the datalog fixpoint naively over
nulls, and keeps the null-free goal tuples -- all in polynomial time.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from ..core.instance import Instance
from ..core.terms import Value
from ..exchange.setting import DataExchangeSetting
from ..logic.datalog import DatalogProgram
from .semantics import solutions_for


def datalog_certain_answers(
    setting: DataExchangeSetting,
    source: Instance,
    program: DatalogProgram,
    *,
    solution: Optional[Instance] = None,
) -> FrozenSet[Tuple[Value, ...]]:
    """``certain□(P, S) = certain◇(P, S)`` for a datalog program P.

    The program's EDB predicates must be target relations of the
    setting; IDB predicates are free names.  Pass ``solution`` to reuse
    an already-computed CWA-solution; otherwise the core of
    :func:`~repro.answering.semantics.solutions_for` is used.
    """
    if solution is None:
        (solution,) = solutions_for(setting, source, "certain")
    return program.certain_part(solution)

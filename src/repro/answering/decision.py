"""The decision problems of Section 7.2: ``L_answers(D, Q)``.

For a fixed setting D and query Q, the data complexity of query
answering is the complexity of the language

    ``L_answers(D, Q) = { ⟨S, ū⟩ | ū ∈ answers_D(Q, S) }``

where ``answers`` is one of certain□, certain◇, maybe□, maybe◇.  This
module packages each such language as a callable membership test so the
benchmark harness (and downstream users studying a setting's complexity)
can speak the paper's language directly.

Membership of a single tuple is decided without computing the full
answer set where possible: for Boolean queries and the □ semantics we
short-circuit on the first refuting world.
"""

from __future__ import annotations

from typing import Tuple

from ..core.instance import Instance
from ..core.terms import Value
from ..cwa.solution import cansol, core_solution
from ..exchange.setting import DataExchangeSetting
from ..logic.queries import Query
from ..obs import span
from .semantics import NoCwaSolutionError
from .valuations import certain_holds_on, maybe_holds_on

SEMANTICS = ("certain", "potential_certain", "persistent_maybe", "maybe")


class AnswerLanguage:
    """``L_answers(D, Q)`` for one semantics, as a membership test.

    >>> # membership = language(S, ū); see tests for usage.
    """

    def __init__(
        self,
        setting: DataExchangeSetting,
        query: Query,
        semantics: str = "certain",
    ):
        if semantics not in SEMANTICS:
            raise ValueError(
                f"semantics must be one of {SEMANTICS}, got {semantics!r}"
            )
        self.setting = setting
        self.query = query
        self.semantics = semantics

    def __call__(self, source: Instance, answer: Tuple[Value, ...] = ()) -> bool:
        """Decide ``⟨S, ū⟩ ∈ L_answers(D, Q)``."""
        if len(answer) != self.query.arity:
            raise ValueError(
                f"answer arity {len(answer)} does not match query arity "
                f"{self.query.arity}"
            )
        with span(f"answering.decide.{self.semantics}"):
            if self.semantics in ("certain", "persistent_maybe"):
                solution = core_solution(self.setting, source)
                if solution is None:
                    raise NoCwaSolutionError("no CWA-solution exists")
                decide = (
                    certain_holds_on
                    if self.semantics == "certain"
                    else maybe_holds_on
                )
                return decide(
                    self.query,
                    answer,
                    solution,
                    self.setting.target_dependencies,
                )
            # The ◇-over-solutions semantics: fast path through CanSol when
            # available, else the full set computation.
            if (
                self.setting.target_dependencies_are_egds_only
                or self.setting.is_full_and_egd_setting
            ):
                solution = cansol(self.setting, source)
                if solution is None:
                    raise NoCwaSolutionError("no CWA-solution exists")
                decide = (
                    certain_holds_on
                    if self.semantics == "potential_certain"
                    else maybe_holds_on
                )
                return decide(
                    self.query,
                    answer,
                    solution,
                    self.setting.target_dependencies,
                )
            # General settings: decide per enumerated CWA-solution, with the
            # tuple's own constants anchored (a set-level computation would
            # report fresh-constant generic witnesses instead of ū itself).
            from ..cwa.enumeration import enumerate_cwa_solutions

            solutions = enumerate_cwa_solutions(self.setting, source)
            if not solutions:
                raise NoCwaSolutionError("no CWA-solution exists")
            decide = (
                certain_holds_on
                if self.semantics == "potential_certain"
                else maybe_holds_on
            )
            return any(
                decide(
                    self.query,
                    answer,
                    solution,
                    self.setting.target_dependencies,
                )
                for solution in solutions
            )


def certain_language(setting: DataExchangeSetting, query: Query) -> AnswerLanguage:
    """``L_certain□(D, Q)``."""
    return AnswerLanguage(setting, query, "certain")


def potential_certain_language(
    setting: DataExchangeSetting, query: Query
) -> AnswerLanguage:
    """``L_certain◇(D, Q)``."""
    return AnswerLanguage(setting, query, "potential_certain")


def persistent_maybe_language(
    setting: DataExchangeSetting, query: Query
) -> AnswerLanguage:
    """``L_maybe□(D, Q)``."""
    return AnswerLanguage(setting, query, "persistent_maybe")


def maybe_language(setting: DataExchangeSetting, query: Query) -> AnswerLanguage:
    """``L_maybe◇(D, Q)``."""
    return AnswerLanguage(setting, query, "maybe")

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
from ..exchange.setting import DataExchangeSetting
from ..logic.queries import Query
from ..obs import span
from .semantics import BOX, SEMANTICS_NAMES, solutions_for
from .valuations import certain_holds_on, maybe_holds_on


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
        if semantics not in SEMANTICS_NAMES:
            raise ValueError(
                f"semantics must be one of {SEMANTICS_NAMES}, "
                f"got {semantics!r}"
            )
        self.setting = setting
        self.query = query
        self.semantics = semantics

    def __call__(self, source: Instance, answer: Tuple[Value, ...] = ()) -> bool:
        """Decide ``⟨S, ū⟩ ∈ L_answers(D, Q)``.

        ū is decided on each solution :func:`solutions_for` returns,
        with its own constants anchored (a set-level computation would
        report fresh-constant generic witnesses instead of ū itself).
        For an intersecting semantics that list is the core alone.
        """
        if len(answer) != self.query.arity:
            raise ValueError(
                f"answer arity {len(answer)} does not match query arity "
                f"{self.query.arity}"
            )
        holds = certain_holds_on if self.semantics in BOX else maybe_holds_on
        with span(f"answering.decide.{self.semantics}"):
            return any(
                holds(
                    self.query,
                    answer,
                    solution,
                    self.setting.target_dependencies,
                )
                for solution in solutions_for(
                    self.setting, source, self.semantics
                )
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

"""Query answering: valuations, Rep_D, and the four CWA semantics."""

from .datalog_answers import datalog_certain_answers
from .decision import (
    AnswerLanguage,
    certain_language,
    maybe_language,
    persistent_maybe_language,
    potential_certain_language,
)
from .naive import owa_certain_answers, u_certain_answers, ucq_certain_answers
from .semantics import (
    NoCwaSolutionError,
    all_four_semantics,
    answers_over_space,
    certain_answers,
    maybe_answers,
    persistent_maybe_answers,
    potential_certain_answers,
    solutions_for,
)
from .valuations import (
    certain_and_maybe_on,
    certain_holds_on,
    certain_on,
    maybe_holds_on,
    maybe_on,
    rep,
    valuations,
)

__all__ = [
    "AnswerLanguage",
    "NoCwaSolutionError",
    "certain_language",
    "datalog_certain_answers",
    "maybe_language",
    "persistent_maybe_language",
    "potential_certain_language",
    "all_four_semantics",
    "answers_over_space",
    "certain_and_maybe_on",
    "certain_answers",
    "certain_holds_on",
    "certain_on",
    "maybe_answers",
    "maybe_holds_on",
    "maybe_on",
    "owa_certain_answers",
    "persistent_maybe_answers",
    "potential_certain_answers",
    "rep",
    "solutions_for",
    "u_certain_answers",
    "ucq_certain_answers",
    "valuations",
]

"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(ReproError):
    """A schema was used inconsistently (unknown relation, wrong arity, ...)."""


class ArityError(SchemaError):
    """An atom or tuple does not match the arity of its relation symbol."""


class ParseError(ReproError):
    """A dependency, formula or query string could not be parsed."""

    def __init__(self, message: str, text: str = "", position: int = -1):
        self.text = text
        self.position = position
        if text and position >= 0:
            pointer = " " * position + "^"
            message = f"{message}\n  {text}\n  {pointer}"
        super().__init__(message)


class DependencyError(ReproError):
    """A dependency is malformed (free variables, wrong shape, ...)."""


class ChaseFailure(ReproError):
    """An egd tried to equate two distinct constants; the chase fails.

    Carries the offending egd and the pair of constants so callers can
    report *why* no solution exists.
    """

    def __init__(self, egd, left, right):
        self.egd = egd
        self.left = left
        self.right = right
        super().__init__(
            f"chase failed: egd {egd} requires {left} = {right}, "
            f"but both are constants"
        )


class ChaseDivergence(ReproError):
    """A chase did not terminate within its step budget.

    For weakly acyclic settings the standard chase always terminates; this
    error therefore signals either a non-terminating setting (as in the
    paper's Example 4.4 with alpha_3, or D_halt on a non-halting machine)
    or a budget that is too small.
    """

    def __init__(self, steps: int, message: str = ""):
        self.steps = steps
        super().__init__(
            message or f"chase exceeded its step budget of {steps} steps"
        )


class NotASolutionError(ReproError):
    """A target instance was expected to be a solution but is not."""


class UnsupportedQueryError(ReproError):
    """A query falls outside the class supported by the chosen algorithm."""


class WorkerCrashed(ReproError):
    """A pool worker died mid-batch (killed, or ``os._exit`` in a task).

    The batch's results are lost; the executor has dropped its broken
    pool, so the next batch starts a fresh one.  The batch is not re-run
    in the parent: a crash may be an out-of-memory kill.
    """

    def __init__(self, label: str, tasks: int):
        self.label = label
        self.tasks = tasks
        super().__init__(
            f"a worker process died while running {label!r} "
            f"({tasks} task(s)); the pool was discarded"
        )

"""Chase outcomes.

Every chase engine returns a :class:`ChaseOutcome` describing how the run
ended (Definition 4.2 distinguishes *successful*, *failing*, and infinite
chases -- we report the latter as *diverged*, detected by a step budget or
by revisiting a state) and the resulting instance.  The run's steps are
not part of the outcome: a chase run under
:func:`repro.obs.provenance.recording` records each tgd firing and egd
merge in the provenance ledger, from which :func:`repro.chase.narrate`
replays the run.
"""

from __future__ import annotations

import enum

from ..core.instance import Instance


class ChaseStatus(enum.Enum):
    """How a chase run ended."""

    SUCCESS = "success"
    FAILURE = "failure"  # an egd equated two distinct constants
    DIVERGED = "diverged"  # budget exhausted or a state repeated


class ChaseOutcome:
    """Result of a chase run.

    Attributes
    ----------
    status:
        :class:`ChaseStatus` -- success, failure, or divergence.
    instance:
        The final instance (for FAILURE/DIVERGED, the state reached when
        the run stopped -- useful for diagnostics).
    steps:
        Number of dependency applications performed.
    reason:
        Human-readable explanation for non-success outcomes.
    elapsed_seconds:
        Wall time of the run (perf_counter), populated by every engine.
    nulls_created:
        Number of fresh nulls invented by tgd firings during the run.
    rounds:
        Number of egd-fixpoint → tgd-pass rounds of the batched engines
        (standard and semi-naive, :func:`repro.chase.loop.chase_rounds`);
        0 for the α-chase, whose tgd saturation is not round-based.
    """

    __slots__ = (
        "status",
        "instance",
        "steps",
        "reason",
        "elapsed_seconds",
        "nulls_created",
        "rounds",
    )

    def __init__(
        self,
        status: ChaseStatus,
        instance: Instance,
        steps: int,
        reason: str = "",
        *,
        elapsed_seconds: float = 0.0,
        nulls_created: int = 0,
        rounds: int = 0,
    ):
        self.status = status
        self.instance = instance
        self.steps = steps
        self.reason = reason
        self.elapsed_seconds = elapsed_seconds
        self.nulls_created = nulls_created
        self.rounds = rounds

    @property
    def successful(self) -> bool:
        return self.status is ChaseStatus.SUCCESS

    @property
    def failed(self) -> bool:
        return self.status is ChaseStatus.FAILURE

    @property
    def diverged(self) -> bool:
        return self.status is ChaseStatus.DIVERGED

    def require_success(self) -> Instance:
        """The result instance, or raise if the chase did not succeed."""
        from ..core.errors import ChaseDivergence, ChaseFailure, ReproError

        if self.successful:
            return self.instance
        if self.failed:
            raise ReproError(f"chase failed: {self.reason}")
        raise ChaseDivergence(self.steps, self.reason or "chase diverged")

    def __repr__(self) -> str:
        return (
            f"ChaseOutcome({self.status.value}, steps={self.steps}, "
            f"|I|={len(self.instance)})"
        )

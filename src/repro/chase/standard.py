"""The standard chase (Fagin-Kolaitis-Miller-Popa semantics).

A tgd fires on a premise match only if the conclusion is not *satisfiable*
with any witnesses -- condition (2) of Remark 4.3.  Fresh nulls are
invented for the existential variables of each firing.  Egds are applied
with the merge rule of footnote 4 and fail on distinct constants.

For weakly acyclic settings every standard chase sequence terminates after
polynomially many steps; on success the result (restricted to the target
schema) is the *canonical universal solution*.  On egd failure, no
solution exists at all.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.instance import Instance
from ..core.terms import NullFactory
from ..dependencies.base import Dependency
from .loop import DEFAULT_MAX_STEPS, TriggerSource, chase_rounds
from .result import ChaseOutcome


def standard_chase(
    instance: Instance,
    dependencies: Sequence[Dependency],
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    trace: bool = False,
    null_factory: Optional[NullFactory] = None,
) -> ChaseOutcome:
    """Run the standard chase of ``instance`` with ``dependencies``.

    The input instance is not modified.  Strategy: egds take priority over
    tgds and dependencies are tried in the given order, which makes runs
    deterministic; for weakly acyclic settings the final result does not
    depend on the strategy (all sequences terminate, and all successful
    results are hom-equivalent).  Every pass re-enumerates all premise
    matches (the full-scan :class:`TriggerSource`); a pass that fires
    nothing ends the chase.

    Returns a :class:`ChaseOutcome`; on ``SUCCESS`` the ``instance`` field
    satisfies every dependency.
    """
    return chase_rounds(
        "standard",
        "standard chase",
        instance.copy(),
        dependencies,
        TriggerSource,
        max_steps=max_steps,
        trace=trace,
        null_factory=null_factory,
    )

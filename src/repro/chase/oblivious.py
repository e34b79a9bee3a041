"""The oblivious chase: the α-chase under the canonical fresh-null α.

Driving :func:`repro.chase.alpha.alpha_chase` with a :class:`FreshAlpha`
fires every justification ``(d, ū, v̄)`` with its own fresh nulls.  For
settings *without* egds this terminates exactly when only finitely many
justifications become reachable -- which rich acyclicity guarantees
(Definition 7.3); mere weak acyclicity does not, because distinct
ȳ-tuples yield distinct justifications (see the discussion following
Proposition 7.4).

With egds the fresh-null α often admits *no* successful chase at all: an
egd that merges a witness null makes its justification α-applicable again
and the chase loops (the mechanism of Example 4.4, α₃).  Constructions
that need a maximal CWA-presolution in the presence of egds (CanSol,
Proposition 5.4) instead use :func:`fire_all_source_justifications` and
merge afterwards, deriving the α that reproduces the merged result.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..core.instance import Instance
from ..core.terms import NullFactory, Value
from ..dependencies.base import Dependency
from ..dependencies.tgd import Tgd
from ..obs import span
from .alpha import (
    DEFAULT_MAX_STEPS,
    FreshAlpha,
    JustificationKey,
    alpha_chase,
    binding_key,
)
from .loop import ChaseRun
from .result import ChaseOutcome


def oblivious_chase(
    instance: Instance,
    dependencies: Sequence[Dependency],
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    null_factory: Optional[NullFactory] = None,
) -> Tuple[ChaseOutcome, FreshAlpha]:
    """Run the α-chase under the canonical fresh-null α.

    Returns the outcome together with the FreshAlpha used, whose
    ``assigned()`` table is the relevant finite part of α.
    """
    factory = null_factory or instance.null_factory()
    alpha = FreshAlpha(factory)
    with span("chase.oblivious"):
        outcome = alpha_chase(
            instance, dependencies, alpha, max_steps=max_steps
        )
    return outcome, alpha


def fire_all_source_justifications(
    source: Instance,
    st_tgds: Sequence[Tgd],
    *,
    null_factory: Optional[NullFactory] = None,
) -> Tuple[Instance, Dict[JustificationKey, Tuple[Value, ...]]]:
    """Fire every s-t justification once, each with fresh nulls.

    This is Libkin's canonical CWA-presolution construction for settings
    without target dependencies: for each s-t-tgd d and each pair (ū, v̄)
    with ``S ⊨ ϕ[ū, v̄]``, add the atoms of ``ψ[ū, w̄]`` where w̄ are the
    fresh nulls chosen for that justification.

    Because s-t premises speak about the source schema only, the set of
    justifications is fixed by S and is *not* affected by later egd
    merges on the target side -- which is what makes the CanSol
    construction of Proposition 5.4 (target egds only) work.

    Returns ``(S ∪ fired atoms, justification table)``.
    """
    factory = null_factory or source.null_factory()
    run = ChaseRun("oblivious", "oblivious chase", source.copy())
    table: Dict[JustificationKey, Tuple[Value, ...]] = {}
    with span("chase.fire_all_source_justifications"):
        for tgd in st_tgds:
            started = run.clock()
            triggers = 0
            firings = 0
            for binding in tgd.premise_bindings(source):
                triggers += 1
                key = binding_key(tgd, binding)
                if key in table:
                    continue
                witnesses = factory.fresh_tuple(len(tgd.existential))
                table[key] = witnesses
                run.fire(tgd, binding, witnesses)
                firings += 1
            if triggers:
                run.attribute(
                    tgd,
                    0,
                    started,
                    triggers=triggers,
                    firings=firings,
                    nulls=firings * len(tgd.existential),
                )
    run.size_gauges()
    return run.current, table

"""End-to-end data exchange driver.

``solve`` runs a complete exchange: chase, canonical universal solution,
core (= minimal CWA-solution), existence verdicts -- everything Section 6
associates with "computing a CWA-solution".  The result object carries
enough to answer queries afterwards without re-chasing.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from ..core.atoms import Atom
from ..core.errors import ChaseDivergence, ReproError
from ..core.instance import Instance
from ..core.schema import Schema
from ..chase import CHASE_ENGINES
from ..chase.loop import DEFAULT_MAX_STEPS
from ..chase.result import ChaseStatus
from ..homomorphism.blocks import blockwise_core
from ..io import (
    atoms_from_payload,
    sorted_atoms_to_payload,
    sorted_atoms_to_text,
)
from ..obs import counter, gauge, span
from .setting import DataExchangeSetting


class ExchangeResult:
    """Outcome of one data exchange run.

    Attributes
    ----------
    setting, source:
        The inputs.
    canonical_solution:
        The chase result restricted to τ, or None when the chase failed
        (no solution exists).  The default semi-naive engine is a
        standard chase: it differs from the full scan only in how it
        finds triggers.
    core_solution:
        ``Core_D(S)`` -- by Theorem 5.1 the minimal CWA-solution -- or
        None when no solution exists.
    chase_steps:
        Number of chase steps performed.
    """

    __slots__ = ("setting", "source", "canonical_solution", "core_solution", "chase_steps")

    def __init__(self, setting, source, canonical_solution, core_solution, chase_steps):
        self.setting: DataExchangeSetting = setting
        self.source: Instance = source
        self.canonical_solution: Optional[Instance] = canonical_solution
        self.core_solution: Optional[Instance] = core_solution
        self.chase_steps: int = chase_steps

    @property
    def cwa_solution_exists(self) -> bool:
        """Corollary 5.2: iff a universal solution exists."""
        return self.core_solution is not None

    @property
    def cwa_solution(self) -> Optional[Instance]:
        """The CWA-solution this run produces: the core (Theorem 5.1)."""
        return self.core_solution

    def __repr__(self) -> str:
        if not self.cwa_solution_exists:
            return "ExchangeResult(no solution)"
        return (
            f"ExchangeResult(|canonical|={len(self.canonical_solution)}, "
            f"|core|={len(self.core_solution)}, steps={self.chase_steps})"
        )


#: The chase engine of :func:`solve`, and so of every library path that
#: chases a setting's source.
DEFAULT_ENGINE = "seminaive"


def solve(
    setting: DataExchangeSetting,
    source: Instance,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    compute_core: bool = True,
    engine: str = DEFAULT_ENGINE,
    cache=None,
) -> ExchangeResult:
    """Run the data exchange for ``source`` under ``setting``.

    This is the polynomial-time procedure of Proposition 6.6 for weakly
    acyclic settings: standard chase (polynomially many steps), then the
    core.  For non-weakly-acyclic settings the chase may diverge, in
    which case :class:`ChaseDivergence` propagates -- the Existence
    problem is undecidable in general (Theorem 6.2), so no budget-free
    procedure can exist.

    ``engine`` selects the trigger-discovery strategy of the standard
    chase: "seminaive" (the default, :data:`DEFAULT_ENGINE`) joins only
    what each pass added or rewrote, "standard" rescans every premise
    match on every pass and is kept as the full-scan reference for
    differential tests and benchmarks.  Both produce hom-equivalent
    canonical solutions and isomorphic cores.  Every other library
    path that chases a setting's source
    (:meth:`DataExchangeSetting.canonical_universal_solution`,
    :func:`~repro.cwa.solution.core_solution` and the answering
    semantics behind them) calls ``solve`` with the default.  The core is
    :func:`~repro.homomorphism.blocks.blockwise_core`: one pass of
    Gaifman-block folding, exact without a verification fold.

    ``cache``: a :class:`repro.engine.ResultCache`; hits skip the chase
    and core computation entirely.  The key covers the setting, the
    source (up to isomorphism), ``max_steps`` and ``engine``; chase
    *failures* are cached (they are definitive verdicts), divergence is
    not (a larger budget might succeed).
    """
    setting.validate_source(source)
    try:
        chase = CHASE_ENGINES[engine]
    except KeyError:
        raise ReproError(
            f"unknown chase engine {engine!r}; pick one of "
            f"{sorted(CHASE_ENGINES)}"
        ) from None
    key = None
    if cache is not None:
        from ..engine.fingerprint import solve_key  # lazy: engine is optional

        key = solve_key(
            setting,
            source,
            max_steps=max_steps,
            engine=engine,
            core_algorithm="blockwise",
        )
        value = cache.get_value(
            "solve",
            key,
            lambda payload: _value_from_payload(payload, setting.target_schema),
        )
        if value is not None:
            result = _result_from_value(setting, source, value)
            if result.core_solution is None and compute_core and (
                result.canonical_solution is not None
            ):
                # Cached by a compute_core=False caller: finish the
                # job from the cached canonical and upgrade the entry.
                with span("solve.core_from_cache"):
                    result.core_solution = blockwise_core(
                        result.canonical_solution
                    )
                cache.put("solve", key, *_cache_entry(result))
            counter("solve.cache_hits").inc()
            return result
    with span("solve"):
        outcome = chase(
            source, list(setting.all_dependencies), max_steps=max_steps
        )
        if outcome.status is ChaseStatus.DIVERGED:
            raise ChaseDivergence(outcome.steps, outcome.reason)
        if outcome.status is ChaseStatus.FAILURE:
            result = ExchangeResult(setting, source, None, None, outcome.steps)
        else:
            canonical = outcome.instance.reduct(setting.target_schema)
            gauge("instance.nulls").set(len(canonical.nulls()))
            core_instance = blockwise_core(canonical) if compute_core else None
            result = ExchangeResult(
                setting, source, canonical, core_instance, outcome.steps
            )
    if cache is not None:
        cache.put("solve", key, *_cache_entry(result))
    return result


def _cache_entry(
    result: ExchangeResult, sorted_canonical: Optional[List[Atom]] = None
) -> Tuple[dict, tuple, Optional[str]]:
    """The ``solve`` cache entry of a result (sans inputs).

    Returns the JSON payload, its value ``(canonical, core, chase
    steps)`` and the payload's JSON text for :meth:`ResultCache.put`.
    The two instances of the value are private snapshots: copy-on-write
    copies of the result's, which no caller ever receives
    (:func:`_result_from_value` hands out copies of them).

    The text is assembled from each atom's cached JSON
    (:func:`repro.io.sorted_atoms_to_text`), so no instance is encoded
    here.  ``sorted_canonical`` is the canonical solution's atoms in
    :meth:`Atom.sort_key` order when the caller keeps them (a
    :class:`DeltaSession` does); otherwise they are sorted here.  The
    core is a retract of the canonical solution, so its rows are those
    atoms filtered by membership.  When the core equals the canonical
    solution (nothing folds), one snapshot, one payload dict and one
    text serve both, and the text goes into the entry twice.  A failed
    solve holds no instance; its text is left to ``put``.
    """
    canonical = result.canonical_solution
    core_instance = result.core_solution
    if canonical is None:
        payload = {
            "status": "failed",
            "chase_steps": result.chase_steps,
            "canonical": None,
            "core": None,
        }
        return payload, (None, None, result.chase_steps), None
    rows = sorted_canonical
    if rows is None:
        rows = canonical.sorted_atoms()
    canonical_payload = sorted_atoms_to_payload(rows)
    canonical_text = sorted_atoms_to_text(rows)
    if core_instance is None:
        core_payload, core_text = None, "null"
        canonical = _snapshot(canonical)
    elif core_instance == canonical:
        core_payload, core_text = canonical_payload, canonical_text
        canonical = core_instance = _snapshot(canonical)
    else:
        core_rows = [item for item in rows if item in core_instance]
        core_payload = sorted_atoms_to_payload(core_rows)
        core_text = sorted_atoms_to_text(core_rows)
        canonical = _snapshot(canonical)
        core_instance = _snapshot(core_instance)
    payload = {
        "status": "solved",
        "chase_steps": result.chase_steps,
        "canonical": canonical_payload,
        "core": core_payload,
    }
    text = (
        f'{{"canonical": {canonical_text}, '
        f'"chase_steps": {json.dumps(result.chase_steps)}, '
        f'"core": {core_text}, "status": "solved"}}'
    )
    return payload, (canonical, core_instance, result.chase_steps), text


def _snapshot(instance: Optional[Instance]) -> Optional[Instance]:
    return None if instance is None else instance.copy()


def _value_from_payload(payload: dict, schema: Schema) -> Optional[tuple]:
    """Decode a cached payload into its value; None when it is unusable.

    The instances are validated against ``schema``, the setting's target
    schema, and built once, as the snapshots of the value.  A ``"core"``
    equal to the ``"canonical"`` payload shares its snapshot, as in the
    value :func:`_cache_entry` builds.
    """
    try:
        canonical = payload.get("canonical")
        canonical_instance = (
            Instance.from_ground(atoms_from_payload(canonical, schema))
            if canonical is not None
            else None
        )
        core_payload = payload.get("core")
        if core_payload is None:
            core_instance = None
        elif core_payload == canonical:
            core_instance = canonical_instance
        else:
            core_instance = Instance.from_ground(
                atoms_from_payload(core_payload, schema)
            )
        steps = int(payload["chase_steps"])
    except (ReproError, KeyError, TypeError, ValueError):
        return None
    return canonical_instance, core_instance, steps


def _result_from_value(
    setting: DataExchangeSetting, source: Instance, value: tuple
) -> ExchangeResult:
    """A result of copies of a cached value's snapshots.

    Every instance is a distinct copy-on-write copy, so no edit of the
    result reaches the snapshots or a later hit; a core sharing the
    canonical solution's snapshot is a second copy of it.
    """
    canonical, core_instance, steps = value
    return ExchangeResult(
        setting, source, _snapshot(canonical), _snapshot(core_instance), steps
    )


def existence_of_cwa_solutions(
    setting: DataExchangeSetting,
    source: Instance,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> bool:
    """The Existence-of-CWA-Solutions(D) decision problem (Section 6).

    PTIME for weakly acyclic settings (Proposition 6.6), undecidable in
    general (Theorem 6.2) -- the step budget makes this a semi-decision
    procedure outside the weakly acyclic class.
    """
    result = solve(setting, source, max_steps=max_steps, compute_core=False)
    return result.canonical_solution is not None

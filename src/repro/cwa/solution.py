"""CWA-solutions (Definition 4.7) and their structure (Section 5).

A CWA-presolution T is a **CWA-solution** iff every fact true in T
follows from S and Σ; by Theorem 4.8 this holds iff T is a *universal*
solution.  This module implements:

* the CWA-solution test (Theorem 4.8),
* existence (Corollary 5.2: CWA-solutions exist iff universal solutions
  exist iff the core exists),
* the minimal CWA-solution ``Core_D(S)`` (Theorem 5.1),
* the maximal CWA-solution ``CanSol_D(S)`` for the two restricted classes
  of Proposition 5.4,
* minimality / maximality checks used to explore the solution space
  (Example 5.3 shows maximal CWA-solutions need not exist in general).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.errors import ReproError
from ..core.instance import Instance
from ..chase.loop import DEFAULT_MAX_STEPS
from ..chase.oblivious import fire_all_source_justifications
from ..chase.result import ChaseStatus
from ..chase.seminaive import seminaive_chase
from ..exchange.setting import DataExchangeSetting
from ..exchange.solve import solve
from ..homomorphism.search import homomorphisms
from .presolution import is_cwa_presolution


class UnsupportedSettingError(ReproError):
    """The requested construction needs a restricted setting class."""


def is_cwa_solution(
    setting: DataExchangeSetting, source: Instance, target: Instance
) -> bool:
    """Theorem 4.8: T is a CWA-solution iff T is a universal solution
    and a CWA-presolution."""
    return setting.is_universal_solution(source, target) and is_cwa_presolution(
        setting, source, target
    )


def fact_follows(
    setting: DataExchangeSetting, source: Instance, fact
) -> bool:
    """Does a fact follow from S and Σ (Section 4)?

    A *fact* is a Boolean conjunctive sentence ``∃x̄ ψ(x̄)``; it follows
    from S and Σ iff it is true in every instance I over σ ∪ τ with
    ``I|σ = S`` and ``I ⊨ Σ``.  Positive existential sentences are
    preserved by homomorphisms, so this holds iff the fact is true
    (naively) in the canonical universal solution -- which is how we
    decide it.  Requires a terminating chase (weakly acyclic settings).
    """
    from ..logic.queries import ConjunctiveQuery

    if not isinstance(fact, ConjunctiveQuery) or fact.arity != 0:
        raise ReproError(
            "facts are Boolean conjunctive sentences (arity-0 CQs without "
            "inequalities)"
        )
    if fact.has_inequalities:
        raise ReproError("facts must not contain inequalities")
    canonical = setting.canonical_universal_solution(source)
    if canonical is None:
        # No solution: every fact follows vacuously.
        return True
    return fact.holds_in(canonical)


def canonical_fact(target: Instance):
    """``φ_T``: the canonical fact of a target instance (Section 4).

    Nulls become existentially quantified variables; by Chandra-Merlin,
    ``I ⊨ φ_T`` iff a homomorphism T → I exists.
    """
    from ..logic.queries import canonical_query

    return canonical_query(target)


def is_cwa_solution_by_definition(
    setting: DataExchangeSetting, source: Instance, target: Instance
) -> bool:
    """Definition 4.7 verbatim: a CWA-presolution all of whose facts
    follow from S and Σ.

    The paper reduces "every fact of T follows" to "φ_T follows"
    (the canonical fact subsumes all others); tests check this agrees
    with the Theorem 4.8 route used by :func:`is_cwa_solution`.
    """
    if not is_cwa_presolution(setting, source, target):
        return False
    return fact_follows(setting, source, canonical_fact(target))


def cwa_solution_exists(
    setting: DataExchangeSetting,
    source: Instance,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> bool:
    """Corollary 5.2: CWA-solutions exist iff universal solutions exist.

    Decided by :func:`~repro.exchange.solve.solve`, whose semi-naive
    engine is a standard chase; complete for weakly acyclic settings
    (Proposition 6.6 -- this is the PTIME procedure).  For general
    settings the problem is undecidable (Theorem 6.2) and a divergence
    escape is possible.
    """
    return setting.universal_solution_exists(source, max_steps=max_steps)


def core_solution(
    setting: DataExchangeSetting,
    source: Instance,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Optional[Instance]:
    """``Core_D(S)``: the core of the universal solutions, or None.

    By Theorem 5.1 this is a CWA-solution whenever it exists, and it is
    the unique *minimal* CWA-solution.  This is
    :func:`~repro.exchange.solve.solve`'s core: one standard chase (the
    semi-naive engine), then one block pass
    (:func:`~repro.homomorphism.blocks.blockwise_core`).
    """
    return solve(setting, source, max_steps=max_steps).core_solution


def minimal_cwa_solution(
    setting: DataExchangeSetting,
    source: Instance,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Optional[Instance]:
    """Alias for :func:`core_solution` under its Section 5 name."""
    return core_solution(setting, source, max_steps=max_steps)


def cansol(
    setting: DataExchangeSetting,
    source: Instance,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Optional[Instance]:
    """``CanSol_D(S)``: the maximal CWA-solution for restricted settings.

    Proposition 5.4 guarantees a maximal CWA-solution when

    * the target dependencies consist of egds only, or
    * Σ_st and Σ_t consist of egds and *full* tgds.

    Construction for the first class: fire every s-t justification with
    fresh nulls (the canonical CWA-presolution of [12]), then close under
    the egds with the semi-naive chase; the merges define the α that
    reproduces the result.  For the second class no nulls exist and the
    chase result is already deterministic and maximal.

    Returns None when no solution exists (an egd failed); raises
    :class:`UnsupportedSettingError` outside the two classes, where a
    maximal CWA-solution may not exist at all (Example 5.3).
    """
    setting.validate_source(source)
    if setting.target_dependencies_are_egds_only:
        fired, _ = fire_all_source_justifications(
            source, setting.st_dependencies
        )
        outcome = seminaive_chase(
            fired, list(setting.target_egds), max_steps=max_steps
        )
        if outcome.status is ChaseStatus.FAILURE:
            return None
        return outcome.require_success().reduct(setting.target_schema)
    if setting.is_full_and_egd_setting:
        return setting.canonical_universal_solution(source, max_steps=max_steps)
    raise UnsupportedSettingError(
        "CanSol is defined for settings whose target dependencies are egds "
        "only, or whose dependencies are egds and full tgds "
        "(Proposition 5.4); for other settings a maximal CWA-solution may "
        "not exist (Example 5.3)"
    )


def is_minimal_cwa_solution(
    setting: DataExchangeSetting,
    source: Instance,
    target: Instance,
    others: Iterable[Instance],
) -> bool:
    """T is minimal iff it is contained, up to renaming of nulls, in every
    CWA-solution (here: in every member of the given collection).

    ``others`` should be the full space of CWA-solutions (e.g. from
    :func:`repro.cwa.enumeration.enumerate_cwa_solutions`).
    """
    if not is_cwa_solution(setting, source, target):
        return False
    return all(embeds_into(target, other) for other in others)


def is_maximal_cwa_solution(
    setting: DataExchangeSetting,
    source: Instance,
    target: Instance,
    others: Iterable[Instance],
) -> bool:
    """T is maximal iff every CWA-solution is a homomorphic image of T."""
    if not is_cwa_solution(setting, source, target):
        return False
    return all(is_homomorphic_image_of(other, target) for other in others)


def embeds_into(small: Instance, large: Instance) -> bool:
    """Is ``small`` contained in ``large`` up to renaming of nulls?

    That is: does an *injective* renaming of nulls to nulls exist whose
    image of ``small`` is a subset of ``large``?  (Constants are fixed.)
    """
    for mapping in homomorphisms(small, large):
        values = list(mapping.values())
        if len(set(values)) != len(values):
            continue
        if any(value.is_constant for value in values):
            continue
        return True
    # The empty-nulls case: a null-free instance embeds iff it is a subset.
    if not small.nulls():
        return small.issubset(large)
    return False


def is_homomorphic_image_of(image: Instance, preimage: Instance) -> bool:
    """Is ``image = h(preimage)`` for some homomorphism h?"""
    image_atoms = image.frozen()
    for mapping in homomorphisms(preimage, image):
        if {a.rename_values(mapping) for a in preimage} == image_atoms:
            return True
    return False

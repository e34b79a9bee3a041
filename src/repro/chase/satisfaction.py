"""Checking that an instance satisfies a set of dependencies."""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..core.instance import Instance
from ..core.terms import Value
from ..dependencies.base import Dependency, split_dependencies
from ..dependencies.egd import Egd
from ..dependencies.tgd import Tgd


def violated_tgd_match(
    instance: Instance, tgd: Tgd
) -> Optional[Tuple[Value, ...]]:
    """The binding ``ū‖v̄`` of a premise match of ``tgd`` whose conclusion
    fails, or None.

    "Fails" uses the standard (existential) reading: no witnesses for z̄
    exist at all, cf. condition (2) in Remark 4.3.
    """
    width = len(tgd.frontier)
    for binding in tgd.premise_bindings(instance):
        if not tgd.conclusion_holds_at(instance, binding[:width]):
            return binding
    return None


def satisfies_tgd(instance: Instance, tgd: Tgd) -> bool:
    """``I ⊨ d`` for a tgd d."""
    return violated_tgd_match(instance, tgd) is None


def satisfies_egd(instance: Instance, egd: Egd) -> bool:
    """``I ⊨ d`` for an egd d."""
    return egd.is_satisfied(instance)


def satisfies_all(instance: Instance, dependencies: Iterable[Dependency]) -> bool:
    """``I ⊨ Σ``."""
    tgds, egds = split_dependencies(list(dependencies))
    return all(satisfies_tgd(instance, d) for d in tgds) and all(
        satisfies_egd(instance, d) for d in egds
    )


def violations(
    instance: Instance, dependencies: Iterable[Dependency]
) -> List[str]:
    """Human-readable descriptions of all violated dependencies.

    Used by error messages and by tests that assert *why* something is
    not a solution.
    """
    problems: List[str] = []
    tgds, egds = split_dependencies(list(dependencies))
    for tgd in tgds:
        binding = violated_tgd_match(instance, tgd)
        if binding is not None:
            values = ", ".join(
                f"{variable} ↦ {value}"
                for variable, value in zip(tgd.binding_order, binding)
            )
            problems.append(f"tgd {tgd} violated under {{{values}}}")
    for egd in egds:
        violation = egd.first_violation(instance)
        if violation is not None:
            left, right = violation
            problems.append(f"egd {egd} violated: {left} ≠ {right}")
    return problems

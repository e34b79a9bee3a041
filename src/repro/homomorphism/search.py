"""Homomorphism search between instances.

A homomorphism from instance I to instance J is a map
``h : Dom(I) → Dom(J)`` with ``h(c) = c`` for every constant c, such that
``R(h(ū)) ∈ J`` whenever ``R(ū) ∈ I`` (Section 2; this is the [6, 7]
notion where nulls may map to nulls *or* constants).

Implementation: by Chandra-Merlin, homomorphisms I → J correspond to
matches of the canonical conjunctive query of I (nulls become variables)
in J, so we reuse the indexed backtracking matcher.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.terms import Null, Value, Variable

from ..logic.matching import attributed, match
from ..obs import counter

Homomorphism = Dict[Value, Value]

# Prefetched handle: ``counter()`` objects survive ``repro.obs.reset``
# (they are zeroed in place), so a module-level fetch is safe and keeps
# the per-search cost to one attribute increment.
_SEARCHES = counter("hom.searches")


def canonical_pattern(instance: Instance) -> Tuple[Tuple[Atom, ...], Dict[Variable, Null]]:
    """Atoms of ``instance`` with nulls replaced by variables.

    Returns the pattern and the variable-to-null correspondence so a match
    can be translated back into a homomorphism.  Callers probing many
    targets against one source (core folding retracts the same instance
    once per atom) should call this once and reuse the pattern: the
    returned tuple is what the plan cache of :mod:`repro.logic.plans`
    keys on, so reuse makes every probe after the first hit the cache.
    """
    to_variable = {
        value: Variable(f"_n{value.ident}") for value in instance.nulls()
    }
    pattern = tuple(
        Atom(
            item.relation,
            tuple(to_variable.get(arg, arg) for arg in item.args),
        )
        for item in instance
    )
    back = {variable: null for null, variable in to_variable.items()}
    return pattern, back


def homomorphism_via_pattern(
    pattern: Tuple[Atom, ...],
    back: Dict[Variable, Null],
    target: Instance,
) -> Optional[Homomorphism]:
    """The first match of a canonical pattern (see above) in ``target``,
    as a homomorphism on the pattern's nulls, or None.

    One ``hom.searches`` increment and ``hom``-attributed matcher work.
    """
    _SEARCHES.inc()
    with attributed("hom"):
        found = next(match(pattern, target, tuple(back)), None)
    if found is None:
        return None
    return dict(zip(back.values(), found))


def homomorphisms(source: Instance, target: Instance) -> Iterator[Homomorphism]:
    """Enumerate all homomorphisms from ``source`` to ``target``.

    Each homomorphism is returned as a dict on ``Null(source)``; constants
    are fixed and omitted.
    """
    _SEARCHES.inc()
    pattern, back = canonical_pattern(source)
    matches = match(pattern, target, tuple(back))
    nulls = tuple(back.values())
    # The search binds the ``hom`` counter pair when it starts, and its
    # later resumptions keep counting into it.  The scope must not stay
    # open across the yields below: while the consumer holds this
    # generator suspended, its own matching is not ``hom`` work.
    with attributed("hom"):
        found = next(matches, None)
    while found is not None:
        yield dict(zip(nulls, found))
        found = next(matches, None)


def find_homomorphism(source: Instance, target: Instance) -> Optional[Homomorphism]:
    """The first homomorphism from ``source`` to ``target``, or None."""
    return homomorphism_via_pattern(*canonical_pattern(source), target)


def has_homomorphism(source: Instance, target: Instance) -> bool:
    """True iff some homomorphism from ``source`` to ``target`` exists."""
    return find_homomorphism(source, target) is not None


def hom_equivalent(left: Instance, right: Instance) -> bool:
    """True iff homomorphisms exist in both directions.

    Universal solutions for the same source instance are exactly the
    solutions hom-equivalent to one (hence any) universal solution.
    """
    return has_homomorphism(left, right) and has_homomorphism(right, left)


def is_homomorphism(mapping: Homomorphism, source: Instance, target: Instance) -> bool:
    """Verify that ``mapping`` really is a homomorphism (used in tests).

    Constants must not be moved; every atom's image must be in ``target``.
    """
    for key, value in mapping.items():
        if key.is_constant and key != value:
            return False
    return all(
        item.rename_values(mapping) in target for item in source
    )


def endomorphisms(instance: Instance) -> Iterator[Homomorphism]:
    """All homomorphisms from an instance to itself."""
    return homomorphisms(instance, instance)


def is_retract_of(candidate: Instance, instance: Instance) -> bool:
    """True iff ``candidate ⊆ instance`` and some hom I → candidate exists.

    This matches the paper's definition of a core: J ⊆ I with a
    homomorphism I → J such that no K ⊊ J admits one.
    """
    return candidate.issubset(instance) and has_homomorphism(instance, candidate)

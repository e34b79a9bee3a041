"""Exhaustive enumeration of CWA-(pre)solutions for small inputs.

Section 5 explores the *space* of CWA-solutions: the core is the unique
minimal one (Theorem 5.1), but there may be exponentially many pairwise
hom-incomparable ones (Example 5.3).  This module materializes that space
for small instances by searching over the witness choices of α directly.

Completeness (up to isomorphism, for CWA-*solutions*): a CWA-solution is
universal, hence admits a homomorphism into the canonical universal
solution, so each of its values is either a constant already in the
active domain or a null whose name does not matter.  It therefore
suffices to let every justification choose witnesses among

* values already present in the current chase state, and
* canonical fresh nulls (one new null per existential position, with
  "new" choices deduplicated by a restricted-growth scheme).

CWA-presolutions that invent *unjustified constants* (like T₁ in
Example 2.1, which is a solution but not universal) are deliberately out
of scope of the enumeration -- they are never CWA-solutions; use
:func:`repro.cwa.presolution.is_cwa_presolution` to recognize them
individually.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core.errors import ChaseDivergence
from ..core.instance import Instance, isomorphic
from ..core.terms import Null, Value
from ..chase.alpha import JustificationKey, justification_key
from ..dependencies.egd import Egd
from ..exchange.setting import DataExchangeSetting
from ..homomorphism.search import has_homomorphism

DEFAULT_MAX_RESULTS = 10_000
DEFAULT_MAX_ATOMS = 400
DEFAULT_MAX_DEPTH = 10_000


class _State:
    """One node of the enumeration tree: a chase state plus the α so far.

    ``source`` is the state's source part, the premise instance of the
    s-t tgds.  It never changes along a branch (sources are ground,
    target tgds add target atoms only, egds rename nulls only), so it is
    computed once per enumeration and clones share it.
    """

    __slots__ = ("instance", "source", "alpha", "next_null", "seen", "depth")

    def __init__(self, instance, source, alpha, next_null, seen, depth):
        self.instance: Instance = instance
        self.source: Instance = source
        self.alpha: Dict[JustificationKey, Tuple[Value, ...]] = alpha
        self.next_null: int = next_null
        self.seen: Set[str] = seen  # state fingerprints, for egd-loop detection
        self.depth: int = depth

    def clone(self) -> "_State":
        return _State(
            self.instance.copy(),
            self.source,
            dict(self.alpha),
            self.next_null,
            set(self.seen),
            self.depth,
        )


def _witness_options(
    state: _State, arity: int
) -> Iterator[Tuple[Tuple[Value, ...], int]]:
    """Candidate witness tuples for a justification with ``arity``
    existential variables, with the number of fresh nulls consumed.

    Each position picks either an existing active-domain value or a fresh
    null; fresh nulls are introduced in restricted-growth order (the
    first fresh position uses null k, the next new one k+1, ...) so that
    isomorphic choices are enumerated once.
    """
    existing = sorted(state.instance.active_domain())
    FRESH = object()
    for pattern in product([FRESH, *existing], repeat=arity):
        witnesses: List[Value] = []
        fresh_used = 0
        fresh_assignment: Dict[int, Null] = {}
        for position, choice in enumerate(pattern):
            if choice is FRESH:
                null = Null(state.next_null + fresh_used)
                fresh_assignment[position] = null
                witnesses.append(null)
                fresh_used += 1
            else:
                witnesses.append(choice)
        yield tuple(witnesses), fresh_used
        # Additionally allow repeated fresh nulls within one tuple
        # (α may assign the same new value to two z-variables).
        if fresh_used >= 2:
            positions = [p for p in range(arity) if pattern[p] is FRESH]
            for merge_pattern in _restricted_growth(len(positions)):
                if max(merge_pattern) + 1 == len(positions):
                    continue  # all distinct: already yielded above
                merged: List[Value] = list(witnesses)
                for local_index, block in enumerate(merge_pattern):
                    merged[positions[local_index]] = Null(
                        state.next_null + block
                    )
                yield tuple(merged), max(merge_pattern) + 1


def _restricted_growth(length: int) -> Iterator[Tuple[int, ...]]:
    """Restricted growth strings of the given length (set partitions)."""
    def extend(prefix: List[int]) -> Iterator[Tuple[int, ...]]:
        if len(prefix) == length:
            yield tuple(prefix)
            return
        ceiling = max(prefix) + 1 if prefix else 0
        for value in range(ceiling + 1):
            prefix.append(value)
            yield from extend(prefix)
            prefix.pop()

    yield from extend([])


def _branches(
    setting: DataExchangeSetting,
    state: _State,
    step,
    max_atoms: int,
    max_depth: int,
    prune_to: Optional[Instance],
) -> List[_State]:
    """Children of ``state`` at an unassigned justification ``step``."""
    tgd, premise_match, key = step
    children: List[_State] = []
    for witnesses, fresh_used in _witness_options(
        state, len(tgd.existential)
    ):
        branch = state.clone()
        branch.alpha[key] = witnesses
        branch.next_null += fresh_used
        branch.instance.add_all(
            tgd.conclusion_atoms_under(premise_match, witnesses)
        )
        branch.depth += 1
        if len(branch.instance) > max_atoms or branch.depth > max_depth:
            raise ChaseDivergence(
                branch.depth,
                f"enumeration exceeded its budget (atoms ≤ {max_atoms}, "
                f"depth ≤ {max_depth})",
            )
        if prune_to is not None and not has_homomorphism(
            branch.instance.reduct(setting.target_schema), prune_to
        ):
            continue
        children.append(branch)
    return children


def enumerate_cwa_presolutions(
    setting: DataExchangeSetting,
    source: Instance,
    *,
    max_results: int = DEFAULT_MAX_RESULTS,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    max_depth: int = DEFAULT_MAX_DEPTH,
    prune_to: Optional[Instance] = None,
) -> List[Instance]:
    """All CWA-presolutions with justified values, up to isomorphism.

    Budgets: raises :class:`ChaseDivergence` if the search would need
    more than ``max_atoms`` atoms in a state or ``max_depth`` chase steps
    on a branch -- for weakly acyclic settings generously sized budgets
    are never hit.

    ``prune_to``: if given, branches whose target part admits no
    homomorphism into this instance are cut immediately.  Sound for
    enumerating *universal* presolutions into a universal solution,
    because hom-into-U is anti-monotone under adding atoms (restricting
    a homomorphism of a superset gives one of the subset).  Used by
    :func:`enumerate_cwa_solutions` with the canonical universal
    solution, where it prunes exponentially many dead branches.
    """
    setting.validate_source(source)
    factory_start = (
        max((n.ident for n in source.nulls()), default=-1) + 1
    )
    results: List[Instance] = []
    # Results deduplicate up to isomorphism: a cheap structural
    # signature first, isomorphism tests only within its bucket.
    signatures: Dict[Tuple, List[Instance]] = {}
    instance = source.copy()
    stack = [
        _State(
            instance,
            instance.reduct(setting.source_schema),
            {},
            factory_start,
            set(),
            0,
        )
    ]
    while stack:
        state = stack.pop()
        step = _advance(setting, state)
        if step == "dead":
            continue
        if step == "budget":
            raise ChaseDivergence(
                state.depth,
                f"enumeration exceeded its budget (atoms ≤ {max_atoms}, "
                f"depth ≤ {max_depth}); the setting may admit unboundedly "
                "large CWA-presolutions",
            )
        if step != "done":
            stack.extend(
                _branches(setting, state, step, max_atoms, max_depth, prune_to)
            )
            continue
        candidate = state.instance.reduct(setting.target_schema)
        if prune_to is not None and not has_homomorphism(candidate, prune_to):
            continue
        signature = (
            tuple(
                (name, candidate.count_of(name))
                for name in candidate.relation_names()
            ),
            len(candidate.nulls()),
        )
        bucket = signatures.setdefault(signature, [])
        if any(isomorphic(candidate, seen) for seen in bucket):
            continue
        bucket.append(candidate)
        results.append(candidate)
        if len(results) >= max_results:
            break
    return results


def _advance(setting: DataExchangeSetting, state: _State):
    """Drive ``state`` forward until a branch point, an end, or death.

    Returns "done" (successful result), "dead" (failing branch),
    "budget", or an unassigned justification (tgd, premise match, key).
    """
    while True:
        # 1. Fire assigned-but-unsatisfied justifications (deterministic).
        fired = False
        for tgd in setting.tgds:
            base = (
                state.source
                if tgd in setting.st_dependencies
                else state.instance
            )
            # Materialize before firing: the compiled matcher iterates
            # live index buckets and target tgds add to the very
            # instance being matched.
            for premise_match in list(tgd.premise_matches(base)):
                key = justification_key(tgd, premise_match)
                witnesses = state.alpha.get(key)
                if witnesses is None:
                    return (tgd, premise_match, key)
                if not tgd.conclusion_present(
                    state.instance, premise_match, witnesses
                ):
                    state.instance.add_all(
                        tgd.conclusion_atoms_under(premise_match, witnesses)
                    )
                    state.depth += 1
                    if state.depth > DEFAULT_MAX_DEPTH:
                        return "budget"
                    fired = True
        if fired:
            continue

        # 2. tgd fixpoint: apply egds.
        violation = None
        for egd in setting.target_egds:
            violation_pair = egd.first_violation(state.instance)
            if violation_pair is not None:
                violation = (egd, violation_pair)
                break
        if violation is None:
            return "done"
        egd, (left, right) = violation
        direction = Egd.merge_direction(left, right)
        if direction is None:
            return "dead"  # failing α-chase
        snapshot = state.instance.fingerprint()
        if snapshot in state.seen:
            return "dead"  # the chase loops forever for this α
        state.seen.add(snapshot)
        old, new = direction
        state.instance.replace_value(old, new)
        state.depth += 1


def enumerate_cwa_solutions(
    setting: DataExchangeSetting,
    source: Instance,
    *,
    max_results: int = DEFAULT_MAX_RESULTS,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> List[Instance]:
    """All CWA-solutions for ``source``, up to isomorphism.

    By Theorem 4.8 these are the universal members of the presolution
    space; universality is checked by a homomorphism into the canonical
    universal solution.
    """
    canonical = setting.canonical_universal_solution(source)
    if canonical is None:
        return []
    return enumerate_cwa_presolutions(
        setting,
        source,
        max_results=max_results,
        max_atoms=max_atoms,
        max_depth=max_depth,
        prune_to=canonical,
    )

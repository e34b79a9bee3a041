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

A state holds its target part only: no chase step changes the source
part, which all states share.  When the search prunes into a universal
solution U (:func:`enumerate_cwa_solutions`), a witness choice is
dropped before its branch is cloned if one of its atoms has no
single-atom image in U; a branch that passes still needs a homomorphism
of its whole target part into U.  The budget is checked on the would-be
branch first, so a search raises :class:`ChaseDivergence` at the same
choice whether or not the choice would have been pruned.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..core.atoms import Atom
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

    ``instance`` is the state's target part, the only part a chase step
    changes: target tgds and egds match target relations only.
    ``source`` is the source part, the premise instance of the s-t
    tgds.  It never changes along a branch (sources are ground, target
    tgds add target atoms only, egds rename nulls only), so it is
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
    state: _State, arity: int, source_domain: FrozenSet[Value]
) -> Iterator[Tuple[Tuple[Value, ...], int]]:
    """Candidate witness tuples for a justification with ``arity``
    existential variables, with the number of fresh nulls consumed.

    Each position picks either an existing active-domain value (of the
    source part, ``source_domain``, or of the target part) or a fresh
    null; fresh nulls are introduced in restricted-growth order (the
    first fresh position uses null k, the next new one k+1, ...) so that
    isomorphic choices are enumerated once.
    """
    existing = sorted(source_domain | state.instance.active_domain())
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


class _Images:
    """Which atoms have a single-atom image in ``target``.

    An atom ``R(ū)`` has one when some ``R``-atom of ``target`` agrees
    with it on every constant and repeats a value wherever ``ū``
    repeats a null.  A homomorphism of a whole branch into ``target``
    maps each of its atoms to such an image, so an atom without one
    rules the branch out before it is built.  Answers are memoized by
    the atom's shape (its relation, its constants, and its nulls
    numbered by first occurrence): ``target`` never changes during an
    enumeration.
    """

    __slots__ = ("target", "_known")

    def __init__(self, target: Instance):
        self.target = target
        self._known: Dict[Tuple, bool] = {}

    def has_image(self, item: Atom) -> bool:
        numbering: Dict[Null, int] = {}
        shape = tuple(
            numbering.setdefault(value, len(numbering))
            if value.__class__ is Null
            else value
            for value in item.args
        )
        key = (item.relation.name, shape)
        known = self._known.get(key)
        if known is None:
            known = self._known[key] = any(
                _agrees(shape, candidate.args)
                for candidate in self.target.probe_relation(key[0])
            )
        return known


def _agrees(shape: Tuple, args: Tuple[Value, ...]) -> bool:
    """Does ``args`` match an :class:`_Images` shape?"""
    bound: Dict[int, Value] = {}
    for entry, value in zip(shape, args):
        if entry.__class__ is int:
            if bound.setdefault(entry, value) != value:
                return False
        elif entry != value:
            return False
    return True


def _branches(
    state: _State,
    step,
    source_domain: FrozenSet[Value],
    max_atoms: int,
    max_depth: int,
    images: Optional[_Images],
) -> List[_State]:
    """Children of ``state`` at an unassigned justification ``step``.

    Each witness choice is first checked against the budget (the
    would-be branch's atoms, source part included, and depth), then,
    with ``images``, against the single-atom prefilter; only a choice
    that passes both is cloned into a branch, which must still map into
    ``images.target`` as a whole.
    """
    tgd, premise_match, key = step
    frontier = premise_match.as_tuple(tgd.frontier)
    present = state.instance
    size = len(state.source) + len(present)
    depth = state.depth + 1
    children: List[_State] = []
    for witnesses, fresh_used in _witness_options(
        state, len(tgd.existential), source_domain
    ):
        atoms = tgd.conclusion_atoms_at(frontier, witnesses)
        added = {item for item in atoms if item not in present}
        if size + len(added) > max_atoms or depth > max_depth:
            raise ChaseDivergence(
                depth,
                f"enumeration exceeded its budget (atoms ≤ {max_atoms}, "
                f"depth ≤ {max_depth})",
            )
        if images is not None and not all(map(images.has_image, atoms)):
            continue
        branch = state.clone()
        branch.alpha[key] = witnesses
        branch.next_null += fresh_used
        branch.instance.add_all(atoms)
        branch.depth = depth
        if images is not None and not has_homomorphism(
            branch.instance, images.target
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
    more than ``max_atoms`` atoms in a state (source atoms included) or
    ``max_depth`` chase steps on a branch -- for weakly acyclic settings
    generously sized budgets are never hit.

    ``prune_to``: if given, branches whose target part admits no
    homomorphism into this instance are cut immediately.  Sound for
    enumerating *universal* presolutions into a universal solution,
    because hom-into-U is anti-monotone under adding atoms (restricting
    a homomorphism of a superset gives one of the subset).  Used by
    :func:`enumerate_cwa_solutions` with the canonical universal
    solution, where it prunes exponentially many dead branches.  A
    witness choice one of whose conclusion atoms has no single-atom
    image in ``prune_to`` is cut before its branch is built
    (:class:`_Images`).
    """
    setting.validate_source(source)
    factory_start = (
        max((n.ident for n in source.nulls()), default=-1) + 1
    )
    results: List[Instance] = []
    # Results deduplicate up to isomorphism: a cheap structural
    # signature first, isomorphism tests only within its bucket.
    signatures: Dict[Tuple, List[Instance]] = {}
    source_part = source.reduct(setting.source_schema)
    source_domain = source_part.active_domain()
    images = _Images(prune_to) if prune_to is not None else None
    stack = [_State(Instance(), source_part, {}, factory_start, set(), 0)]
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
                _branches(
                    state, step, source_domain, max_atoms, max_depth, images
                )
            )
            continue
        candidate = state.instance
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
    universal solution (see :func:`enumerate_cwa_solutions_into`).
    """
    return enumerate_cwa_solutions_into(
        setting,
        source,
        setting.canonical_universal_solution(source),
        max_results=max_results,
        max_atoms=max_atoms,
        max_depth=max_depth,
    )


def enumerate_cwa_solutions_into(
    setting: DataExchangeSetting,
    source: Instance,
    canonical: Optional[Instance],
    *,
    max_results: int = DEFAULT_MAX_RESULTS,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> List[Instance]:
    """:func:`enumerate_cwa_solutions`, given ``source``'s canonical
    universal solution (None when the chase failed), for a caller that
    has chased already.

    The CWA-solutions are the presolutions with a homomorphism into
    ``canonical`` (Theorem 4.8); there are none when it is None.
    """
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

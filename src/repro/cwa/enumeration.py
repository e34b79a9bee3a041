"""Exhaustive enumeration of CWA-(pre)solutions for small inputs.

Section 5 explores the *space* of CWA-solutions: the core is the unique
minimal one (Theorem 5.1), but there may be exponentially many pairwise
hom-incomparable ones (Example 5.3).  This module materializes that space
for small instances by searching over the witness choices of α directly.
Each state is driven by the package's one α-kernel
(:func:`repro.chase.alpha.alpha_rounds`) under its partial α; the
kernel stops at the first unassigned justification, and the search
branches there.  A failing or looping chase is a dead branch, and a
branch that needs more than ``max_depth`` steps raises
:class:`ChaseDivergence`.

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
part (sources are ground, target tgds add target atoms only, egds
rename nulls only), which all states share as the s-t tgds' premise
instance.  When the search prunes into a universal solution U
(:func:`enumerate_cwa_solutions`), a witness choice is dropped before
its branch is cloned if one of its atoms has no single-atom image in U;
a branch that passes still needs a homomorphism of its whole target
part into U.  The budget is checked on the would-be
branch first, so a search raises :class:`ChaseDivergence` at the same
choice whether or not the choice would have been pruned.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core.atoms import Atom
from ..core.errors import ChaseDivergence
from ..core.instance import Instance, isomorphic
from ..core.terms import Null, Value
from ..chase.alpha import JustificationKey, QuietRun, alpha_rounds
from ..chase.result import ChaseStatus
from ..exchange.setting import DataExchangeSetting
from ..homomorphism.search import has_homomorphism

DEFAULT_MAX_RESULTS = 10_000
DEFAULT_MAX_ATOMS = 400
DEFAULT_MAX_DEPTH = 10_000


class _State(QuietRun):
    """One node of the enumeration tree: a chase state plus the α so far.

    It is the run the α-kernel (:func:`~repro.chase.alpha.alpha_rounds`)
    drives, so ``steps`` counts the chase steps of its branch.
    ``current`` is the state's target part, the only part a chase step
    changes: target tgds and egds match target relations only.
    """

    __slots__ = ("alpha", "next_null", "seen")

    def __init__(self, current, max_steps, steps, alpha, next_null, seen):
        super().__init__(current, max_steps, steps)
        self.alpha: Dict[JustificationKey, Tuple[Value, ...]] = alpha
        self.next_null: int = next_null
        self.seen: Set[str] = seen  # state fingerprints, for egd-loop detection

    def clone(self) -> "_State":
        return _State(
            self.current.copy(),
            self.max_steps,
            self.steps,
            dict(self.alpha),
            self.next_null,
            set(self.seen),
        )


def _witness_options(
    state: _State, arity: int, source: Instance
) -> Iterator[Tuple[Tuple[Value, ...], int]]:
    """Candidate witness tuples for a justification with ``arity``
    existential variables, with the number of fresh nulls consumed.

    Each position picks either an existing active-domain value (of the
    source part ``source`` or of the target part) or a fresh
    null; fresh nulls are introduced in restricted-growth order (the
    first fresh position uses null k, the next new one k+1, ...) so that
    isomorphic choices are enumerated once.
    """
    existing = sorted(source.active_domain() | state.current.active_domain())
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
    source: Instance,
    max_atoms: int,
    images: Optional[_Images],
) -> List[_State]:
    """Children of ``state`` at an unassigned justification ``step``.

    Each witness choice is first checked against the budget (the
    would-be branch's atoms, source part included, and depth), then,
    with ``images``, against the single-atom prefilter; only a choice
    that passes both is cloned into a branch, which must still map into
    ``images.target`` as a whole.
    """
    tgd, _, key = step
    frontier = key[1]
    present = state.current
    size = len(source) + len(present)
    depth = state.steps + 1
    children: List[_State] = []
    for witnesses, fresh_used in _witness_options(
        state, len(tgd.existential), source
    ):
        atoms = tgd.conclusion_atoms_at(frontier, witnesses)
        added = {item for item in atoms if item not in present}
        if size + len(added) > max_atoms or depth > state.max_steps:
            raise ChaseDivergence(
                depth,
                f"enumeration exceeded its budget (atoms ≤ {max_atoms}, "
                f"depth ≤ {state.max_steps})",
            )
        if images is not None and not all(map(images.has_image, atoms)):
            continue
        branch = state.clone()
        branch.alpha[key] = witnesses
        branch.next_null += fresh_used
        branch.current.add_all(atoms)
        branch.steps = depth
        if images is not None and not has_homomorphism(
            branch.current, images.target
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
    images = _Images(prune_to) if prune_to is not None else None
    tgds, egds = setting.tgds, setting.target_egds
    source_premise = [tgd in setting.st_dependencies for tgd in tgds]
    stack = [_State(Instance(), max_depth, 0, {}, factory_start, set())]
    while stack:
        state = stack.pop()
        verdict = alpha_rounds(
            state,
            tgds,
            [source_part if st else state.current for st in source_premise],
            egds,
            state.alpha.get,
            state.seen,
        )
        if isinstance(verdict, tuple):  # an unassigned justification
            stack.extend(
                _branches(state, verdict, source_part, max_atoms, images)
            )
            continue
        if verdict is not ChaseStatus.SUCCESS:
            continue  # a failing α-chase, or one that loops forever
        candidate = state.current
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

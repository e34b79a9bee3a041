"""CWA-presolutions (Definition 4.6).

A target instance T is a **CWA-presolution** for a source instance S
under D iff there is a mapping ``α : J_D → Dom`` such that ``S ∪ T`` is
the result of a *successful* α-chase of S with Σ.  CWA-presolutions
formalize the requirements CWA1 (every atom justified) and CWA2 (no
justification produces more than one value).

Recognition
-----------
Deciding whether a given T is a CWA-presolution is in NP (end of
Section 6).  The algorithm here searches for the witnessing α directly:

1. Let ``G = S ∪ T``.  A successful chase result must satisfy Σ and
   leave no tgd α-applicable; so first check ``G ⊨ Σ``.
2. Every premise match ``(d, ū, v̄)`` of a tgd over G must have its
   conclusion realized *inside* G by the witnesses the justification was
   assigned: collect, per match, the candidate witness tuples
   ``{w̄ | atoms of ψ[ū, w̄] ⊆ G}``.  An empty candidate set refutes T.
3. Choose one candidate per match (backtracking) and α-chase S with
   the tgds alone under the chosen witnesses, through the α-kernel
   :func:`~repro.chase.alpha.alpha_rounds`.  T is a CWA-presolution iff
   some choice makes the result equal G exactly (successful chases of a
   null-free S apply only tgds -- Lemma 4.5 -- so a tgd-only derivation
   suffices).  Every state of that chase lies inside G, and target tgds
   have conjunctive premises, so each premise match it meets is one
   over G and has a chosen witness tuple.

The search is exponential only in the number of matches with several
candidates, which is small on realistic instances.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.terms import Value
from ..chase.alpha import (
    ExplicitAlpha,
    JustificationKey,
    QuietRun,
    alpha_rounds,
    binding_key,
)
from ..chase.result import ChaseStatus
from ..chase.satisfaction import satisfies_all
from ..exchange.setting import DataExchangeSetting
from ..logic.matching import match


class _Match:
    """A premise match of a tgd over G, with its candidate witness tuples."""

    __slots__ = ("tgd", "key", "candidates")

    def __init__(self, tgd, key, candidates):
        self.tgd = tgd
        self.key: JustificationKey = key
        self.candidates: Tuple[Tuple[Value, ...], ...] = candidates


def _candidate_witnesses(
    tgd, frontier: Tuple[Value, ...], goal: Instance
) -> Tuple[Tuple[Value, ...], ...]:
    """All w̄ with atoms(ψ[ū, w̄]) ⊆ goal, for ū = ``frontier``."""
    found = match(
        tgd.conclusion_atoms,
        goal,
        tgd.existential,
        prebound=tgd.frontier,
        values=frontier,
    )
    return tuple(sorted(set(found)))


def _collect_matches(
    setting: DataExchangeSetting, source: Instance, goal: Instance
) -> Optional[List[_Match]]:
    """All premise matches over G with candidates; None if one has none.

    S-t premises speak about σ only, so they are matched against the
    source; target premises are matched against G.
    """
    matches: List[_Match] = []
    seen_keys: Set[JustificationKey] = set()
    for tgd in setting.tgds:
        base = source if tgd in setting.st_dependencies else goal
        for binding in tgd.premise_bindings(base):
            key = binding_key(tgd, binding)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            candidates = _candidate_witnesses(tgd, key[1], goal)
            if not candidates:
                return None
            matches.append(_Match(tgd, key, candidates))
    return matches


def find_alpha(
    setting: DataExchangeSetting, source: Instance, target: Instance
) -> Optional[ExplicitAlpha]:
    """An α witnessing that ``target`` is a CWA-presolution, or None.

    The returned :class:`ExplicitAlpha` satisfies: the α-chase of S with
    Σ succeeds and its result is exactly ``S ∪ T`` (verified by tests
    through :func:`repro.chase.alpha.alpha_chase`).
    """
    setting.validate_source(source)
    setting.validate_target(target)
    goal = source.union(target)
    if len(goal) != len(source) + len(target):
        return None  # σ and τ are disjoint, so S and T cannot overlap
    if not satisfies_all(goal, setting.st_dependencies):
        return None
    if not satisfies_all(target, setting.target_dependencies):
        return None

    matches = _collect_matches(setting, source, goal)
    if matches is None:
        return None

    goal_atoms = goal.frozen()

    # Forced matches (single candidate) first; then fewest-candidates.
    matches.sort(key=lambda item: len(item.candidates))

    choice: Dict[JustificationKey, Tuple[Value, ...]] = {}

    # Precompute, per match, the atoms each candidate would add, and the
    # union over the suffix matches[i:] -- the coverage prune then costs
    # a subset test instead of a full rescan.
    candidate_atoms: List[List[Set[Atom]]] = [
        [
            set(item.tgd.conclusion_atoms_at(item.key[1], witnesses))
            for witnesses in item.candidates
        ]
        for item in matches
    ]
    suffix_cover: List[Set[Atom]] = [set() for _ in range(len(matches) + 1)]
    for index in range(len(matches) - 1, -1, -1):
        union: Set[Atom] = set(suffix_cover[index + 1])
        for atoms in candidate_atoms[index]:
            union |= atoms
        suffix_cover[index] = union

    uncovered: Set[Atom] = set(goal_atoms) - set(source.frozen())

    def search(index: int) -> bool:
        if index == len(matches):
            if uncovered:
                return False
            # Every firing adds an atom of G, so |G| steps are enough.
            run = QuietRun(source.copy(), len(goal))
            tgds = setting.tgds
            bases = [run.current] * len(tgds)
            verdict = alpha_rounds(run, tgds, bases, (), choice.get, set())
            result = run.current
            return verdict is ChaseStatus.SUCCESS and result == goal
        if not uncovered <= suffix_cover[index]:
            return False
        item = matches[index]
        # Candidates that cover not-yet-covered atoms first: on
        # bijection-like instances this finds the assignment greedily.
        order = sorted(
            range(len(item.candidates)),
            key=lambda c: -len(candidate_atoms[index][c] & uncovered),
        )
        for candidate_index in order:
            witnesses = item.candidates[candidate_index]
            newly = candidate_atoms[index][candidate_index] & uncovered
            choice[item.key] = witnesses
            uncovered.difference_update(newly)
            if search(index + 1):
                return True
            uncovered.update(newly)
            del choice[item.key]
        return False

    if not search(0):
        return None
    return ExplicitAlpha({item.key: choice[item.key] for item in matches})


def is_cwa_presolution(
    setting: DataExchangeSetting, source: Instance, target: Instance
) -> bool:
    """Definition 4.6: does some α produce ``S ∪ T`` as a successful
    α-chase result?"""
    return find_alpha(setting, source, target) is not None

"""The α-chase (Definitions 4.1 and 4.2 of the paper).

The α-chase is the suitably controlled chase that underlies
CWA-presolutions.  A *potential justification* is a quadruple
``(d, ū, v̄, z)`` where d is a tgd ``ϕ(x̄, ȳ) → ∃z̄ ψ(x̄, z̄)``, ū and v̄
are value tuples for x̄ and ȳ, and z is a variable of z̄.  A mapping
``α : J_D → Dom`` fixes, for every justification, the value it produces;
``ᾱ(d, ū, v̄)`` denotes the induced witness tuple for z̄.

A tgd d is **α-applicable** to I with (ū, v̄) iff

    ``I ⊨ ϕ[ū, v̄]``  and  ``I ⊭ ψ[ū, ᾱ(d, ū, v̄)]``          (1)

-- note the contrast with the standard chase, which checks
``I ⊭ ∃z̄ ψ[ū, z̄]`` instead (Remark 4.3).  Egds apply as usual; an
α-chase is *successful* if it is finite, its result satisfies Σ, and no
tgd is α-applicable to the result; it is *failing* if an egd application
fails on two constants (Definition 4.2).

The engine below saturates tgds first, then applies egds, re-saturating
as needed; Lemma 4.5 guarantees that when a successful α-chase exists at
all, this strategy finds it and its result is independent of strategy.
Divergence (as with α₃ in Example 4.4) is detected by a step budget and
by revisiting a previous state.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Substitution
from ..core.errors import DependencyError
from ..core.instance import Instance
from ..core.terms import NullFactory, Value
from ..dependencies.base import Dependency, split_dependencies
from ..dependencies.egd import Egd
from ..dependencies.tgd import Tgd
from ..obs import span, span_stats
from .loop import ChaseRun
from .result import ChaseOutcome, ChaseStatus, ChaseStep

DEFAULT_MAX_STEPS = 100_000

# A justification group (d, ū, v̄); the paper's quadruples (d, ū, v̄, z)
# are recovered by pairing the group with each variable of z̄.
JustificationKey = Tuple[Tgd, Tuple[Value, ...], Tuple[Value, ...]]


def binding_key(tgd: Tgd, binding: Tuple[Value, ...]) -> JustificationKey:
    """The key (d, ū, v̄) of a premise binding ``ū‖v̄``."""
    width = len(tgd.frontier)
    return (tgd, binding[:width], binding[width:])


def justification_key(tgd: Tgd, premise_match: Substitution) -> JustificationKey:
    """The key (d, ū, v̄) of a premise match."""
    return binding_key(tgd, premise_match.as_tuple(tgd.binding_order))


class Alpha:
    """A mapping ``α : J_D → Dom``, accessed per justification group.

    ``witnesses`` returns ``ᾱ(d, ū, v̄)``, i.e. the tuple
    ``(α(d, ū, v̄, z_1), ..., α(d, ū, v̄, z_n))``.
    """

    def witnesses(self, key: JustificationKey) -> Tuple[Value, ...]:
        raise NotImplementedError

    def assigned(self) -> Dict[JustificationKey, Tuple[Value, ...]]:
        """The justification groups this α has produced values for so far."""
        raise NotImplementedError


class ExplicitAlpha(Alpha):
    """An α given by an explicit table, as in the paper's Example 4.4.

    ``table`` maps justification groups to witness tuples.  Lookups of
    unlisted justifications raise (or fall back to a factory of fresh
    nulls when ``fallback`` is supplied, matching the example's "*" rows
    where the value "can be arbitrary").
    """

    def __init__(
        self,
        table: Dict[JustificationKey, Tuple[Value, ...]],
        fallback: Optional[NullFactory] = None,
    ):
        self._table = dict(table)
        self._fallback = fallback

    def witnesses(self, key: JustificationKey) -> Tuple[Value, ...]:
        found = self._table.get(key)
        if found is not None:
            return found
        if self._fallback is None:
            tgd, u, v = key
            raise DependencyError(
                f"α is undefined for justification ({tgd}, {u}, {v})"
            )
        fresh = self._fallback.fresh_tuple(len(key[0].existential))
        self._table[key] = fresh
        return fresh

    def assigned(self) -> Dict[JustificationKey, Tuple[Value, ...]]:
        return dict(self._table)


class FreshAlpha(Alpha):
    """The canonical α: every justification gets pairwise distinct fresh
    nulls, memoized so repeated lookups agree.

    Driving the α-chase with a FreshAlpha realizes the *oblivious* chase;
    it terminates whenever the setting is richly acyclic (the discussion
    after Proposition 7.4 explains why weak acyclicity does not suffice:
    distinct ȳ-tuples give distinct justifications).
    """

    def __init__(self, factory: NullFactory):
        self._factory = factory
        self._memo: Dict[JustificationKey, Tuple[Value, ...]] = {}

    def witnesses(self, key: JustificationKey) -> Tuple[Value, ...]:
        found = self._memo.get(key)
        if found is None:
            found = self._factory.fresh_tuple(len(key[0].existential))
            self._memo[key] = found
        return found

    def assigned(self) -> Dict[JustificationKey, Tuple[Value, ...]]:
        return dict(self._memo)


def alpha_applicable_matches(
    instance: Instance, tgd: Tgd, alpha: Alpha
) -> Iterator[Tuple[Substitution, Tuple[Value, ...]]]:
    """All (premise match, witness tuple) pairs where d is α-applicable."""
    for premise_match in tgd.premise_matches(instance):
        key = justification_key(tgd, premise_match)
        witnesses = alpha.witnesses(key)
        if not tgd.conclusion_present(instance, premise_match, witnesses):
            yield premise_match, witnesses


def any_tgd_alpha_applicable(
    instance: Instance, tgds: Sequence[Tgd], alpha: Alpha
) -> bool:
    """Condition (c) of Definition 4.2(1), negated."""
    for tgd in tgds:
        for _ in alpha_applicable_matches(instance, tgd, alpha):
            return True
    return False


def alpha_chase(
    instance: Instance,
    dependencies: Sequence[Dependency],
    alpha: Alpha,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    trace: bool = False,
) -> ChaseOutcome:
    """Run an α-chase of ``instance`` with ``dependencies`` under ``alpha``.

    Returns SUCCESS with the (unique, cf. Lemma 4.5) result if a
    successful α-chase exists; FAILURE if an egd equates two constants;
    DIVERGED if a state repeats or the step budget runs out (the infinite
    case of Lemma 4.5, e.g. α₃ in Example 4.4).
    """
    tgds, egds = split_dependencies(list(dependencies))
    run = ChaseRun(
        "alpha",
        "α-chase",
        instance.copy(),
        max_steps=max_steps,
        trace=trace,
        fresh_witnesses=False,
    )
    current = run.current
    # Cycle detection stores content fingerprints, not frozen atom sets:
    # a 64-character digest per visited state instead of an O(|I|) copy.
    seen_states: Set[str] = set()

    with span("chase.alpha"):
        # Phase timing only (egds vs tgds), recorded per saturation round
        # -- same overhead-budget reasoning as the standard engine.
        egd_stats = span_stats("egds")
        tgd_stats = span_stats("tgds")
        round_index = 0
        while True:
            # Saturate tgds under α-applicability.  Each pass materializes
            # the current matches and fires every one that is still
            # α-applicable at its own firing time; newly enabled matches are
            # picked up by the next pass.
            pass_started = time.perf_counter()
            try:
                progressed = True
                while progressed:
                    progressed = False
                    for tgd in tgds:
                        started = run.clock()
                        firings = 0
                        pending = [
                            (binding, binding_key(tgd, binding))
                            for binding in tgd.premise_bindings(current)
                        ]
                        for binding, key in pending:
                            witnesses = alpha.witnesses(key)
                            if tgd.conclusion_present_at(
                                current, key[1], witnesses
                            ):
                                continue
                            if run.steps >= max_steps:
                                return run.out_of_budget()
                            run.fire(tgd, binding, witnesses)
                            progressed = True
                            firings += 1
                        if pending:
                            # α-witnesses need not be fresh, so nulls are
                            # counted at the engine level only.
                            run.attribute(
                                tgd,
                                round_index,
                                started,
                                triggers=len(pending),
                                firings=firings,
                            )
            finally:
                tgd_stats.record(time.perf_counter() - pass_started)

            run.beat(round_index)
            # tgd fixpoint reached: no tgd is α-applicable.  Check egds.
            egd_started = time.perf_counter()
            try:
                violating: Optional[Tuple[Egd, Value, Value]] = None
                for egd in egds:
                    started = run.clock()
                    violation = egd.first_violation(current)
                    run.attribute(
                        egd,
                        round_index,
                        started,
                        triggers=1 if violation is not None else 0,
                    )
                    if violation is not None:
                        violating = (egd, *violation)
                        break
                if violating is None:
                    return run.finish(ChaseStatus.SUCCESS)
                egd, left, right = violating
                direction = Egd.merge_direction(left, right)
                if direction is None:
                    return run.finish(
                        ChaseStatus.FAILURE,
                        f"egd {egd} equated distinct constants {left} and {right}",
                    )
                snapshot = current.fingerprint()
                if snapshot in seen_states:
                    return run.finish(
                        ChaseStatus.DIVERGED,
                        "α-chase revisited a state: no successful α-chase "
                        "exists for this α (it must loop forever, cf. "
                        "Example 4.4)",
                    )
                seen_states.add(snapshot)
                run.merge(egd, *direction)
                run.attribute(egd, round_index, merges=1)
            finally:
                egd_stats.record(time.perf_counter() - egd_started)
            round_index += 1
            if run.steps >= max_steps:
                return run.out_of_budget()


class AlphaChaseSession:
    """Manual, step-at-a-time α-chase -- Definition 4.1 exposed directly.

    Used by tests and by the worked example of Section 4 to replay the
    exact chase sequences of Example 4.4.  Each call checks applicability
    per the definition and raises if the step is illegal.
    """

    def __init__(self, instance: Instance, alpha: Alpha):
        self.instance = instance.copy()
        self.alpha = alpha
        self.history: List[ChaseStep] = []
        self.failed = False

    def apply_tgd(self, tgd: Tgd, u: Sequence[Value], v: Sequence[Value]) -> None:
        """α-apply ``tgd`` with tuples ū and v̄ (Definition 4.1)."""
        binding = Substitution(
            dict(zip(tgd.frontier, u)) | dict(zip(tgd.premise_only, v))
        )
        if len(u) != len(tgd.frontier) or len(v) != len(tgd.premise_only):
            raise DependencyError("tuple lengths do not match x̄ / ȳ")
        if not self._premise_holds(tgd, binding):
            raise DependencyError(
                f"{tgd} is not α-applicable: premise fails under ū={u}, v̄={v}"
            )
        key = (tgd, tuple(u), tuple(v))
        witnesses = self.alpha.witnesses(key)
        if tgd.conclusion_present(self.instance, binding, witnesses):
            raise DependencyError(
                f"{tgd} is not α-applicable: ψ[ū, ᾱ] already holds"
            )
        added = tgd.conclusion_atoms_under(binding, witnesses)
        new_atoms = [atom for atom in added if self.instance.add(atom)]
        self.history.append(ChaseStep("tgd", tgd, added=new_atoms))

    def _premise_holds(self, tgd: Tgd, binding: Substitution) -> bool:
        if tgd.premise_atoms is not None:
            return all(
                binding.apply(atom) in self.instance
                for atom in tgd.premise_atoms
            )
        from ..logic.evaluation import holds

        assignment = {variable: binding[variable] for variable in binding}
        return holds(tgd.premise_formula, self.instance, assignment)

    def apply_egd(self, egd: Egd, left: Value, right: Value) -> bool:
        """Apply ``egd`` to a violating pair; returns False if it fails."""
        if left == right:
            raise DependencyError("egd application needs two distinct values")
        if (left, right) not in set(egd.violations(self.instance)) and (
            right,
            left,
        ) not in set(egd.violations(self.instance)):
            raise DependencyError(
                f"{egd} cannot be applied: ({left}, {right}) is not a violation"
            )
        direction = Egd.merge_direction(left, right)
        if direction is None:
            self.failed = True
            self.history.append(ChaseStep("egd", egd, merged=(left, right)))
            return False
        old, new = direction
        self.instance.replace_value(old, new)
        self.history.append(ChaseStep("egd", egd, merged=(old, new)))
        return True

    def is_successful_result(self, dependencies: Sequence[Dependency]) -> bool:
        """Definition 4.2(1): result ⊨ Σ and no tgd α-applicable."""
        from .satisfaction import satisfies_all

        if self.failed:
            return False
        tgds, _ = split_dependencies(list(dependencies))
        if any_tgd_alpha_applicable(self.instance, tgds, self.alpha):
            return False
        return satisfies_all(self.instance, dependencies)

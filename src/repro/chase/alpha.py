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

One kernel, :func:`alpha_rounds`, runs every α-chase of the package:
it saturates the tgds under α-applicability, applies one egd, and
repeats.  Lemma 4.5 guarantees that when a successful α-chase exists at
all, this strategy finds it and its result is independent of strategy.
Divergence (as with α₃ in Example 4.4) is detected by a step budget and
by revisiting a previous state.  :func:`alpha_chase` drives it through
an observed :class:`~.loop.ChaseRun`; the solution-space enumeration
(:mod:`repro.cwa.enumeration`), whose α may leave a justification
unassigned, and :func:`repro.cwa.presolution.find_alpha` drive it
through a :class:`QuietRun`, which no observer sees.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from ..core.errors import ChaseDivergence, DependencyError
from ..core.instance import Instance
from ..core.terms import NullFactory, Value
from ..dependencies.base import Dependency, split_dependencies
from ..dependencies.egd import Egd
from ..dependencies.tgd import Tgd
from ..obs import span, span_stats
from .loop import ChaseRun
from .result import ChaseOutcome, ChaseStatus

DEFAULT_MAX_STEPS = 100_000

# A justification group (d, ū, v̄); the paper's quadruples (d, ū, v̄, z)
# are recovered by pairing the group with each variable of z̄.
JustificationKey = Tuple[Tgd, Tuple[Value, ...], Tuple[Value, ...]]


def binding_key(tgd: Tgd, binding: Tuple[Value, ...]) -> JustificationKey:
    """The key (d, ū, v̄) of a premise binding ``ū‖v̄``."""
    width = len(tgd.frontier)
    return (tgd, binding[:width], binding[width:])


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


def any_tgd_alpha_applicable(
    instance: Instance, tgds: Sequence[Tgd], alpha: Alpha
) -> bool:
    """Condition (c) of Definition 4.2(1), negated."""
    for tgd in tgds:
        for binding in tgd.premise_bindings(instance):
            key = binding_key(tgd, binding)
            if not tgd.conclusion_present_at(
                instance, key[1], alpha.witnesses(key)
            ):
                return True
    return False


class QuietRun:
    """A run of :func:`alpha_rounds` that no observer sees.

    It has :class:`~.loop.ChaseRun`'s firing interface, counts steps and
    keeps no counter, ledger, trace, attribution row or heartbeat.  It
    finishes with a bare :class:`ChaseStatus` and raises
    :class:`ChaseDivergence` when out of steps.
    """

    __slots__ = ("current", "max_steps", "steps")

    def __init__(self, current: Instance, max_steps: int, steps: int = 0):
        self.current = current
        self.max_steps = max_steps
        self.steps = steps

    def fire(self, tgd: Tgd, binding: Tuple[Value, ...], witnesses) -> None:
        frontier = binding[: len(tgd.frontier)]
        self.current.add_all(tgd.conclusion_atoms_at(frontier, witnesses))
        self.steps += 1

    def merge(self, egd: Egd, old: Value, new: Value) -> None:
        self.current.replace_value(old, new)
        self.steps += 1

    def clock(self) -> float:
        return 0.0

    def attribute(self, *args, **counts) -> None:
        pass

    beat = attribute

    def finish(self, status: ChaseStatus, reason: str = "") -> ChaseStatus:
        return status

    def out_of_budget(self):
        raise ChaseDivergence(
            self.steps, f"α-chase exceeded {self.max_steps} steps"
        )


def alpha_rounds(
    run,
    tgds: Sequence[Tgd],
    bases: Sequence[Instance],
    egds: Sequence[Egd],
    witnesses: Callable[[JustificationKey], Optional[Tuple[Value, ...]]],
    seen: Set[str],
    phases=None,
):
    """The α-chase kernel: saturate the tgds, apply one egd, repeat.

    ``run`` is a :class:`~.loop.ChaseRun` or a :class:`QuietRun`; the
    kernel fires, merges and finishes through it.  Each tgd's premise is
    matched in its ``bases`` entry (the working instance, or a source
    part no step changes) and its conclusion checked in ``run.current``.
    ``witnesses`` looks up ``ᾱ(d, ū, v̄)``.  ``seen`` holds the content
    fingerprints of the states egd steps left; ``phases``, if given, is
    the (tgd, egd) pair of span stats that time the two phases.

    Returns what ``run.finish`` or ``run.out_of_budget`` returns, or the
    first ``(tgd, binding, key)`` whose justification ``witnesses``
    answers with None (not assigned yet).
    """
    current = run.current
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
                for tgd, base in zip(tgds, bases):
                    started = run.clock()
                    firings = 0
                    pending = list(tgd.premise_bindings(base))
                    for binding in pending:
                        key = binding_key(tgd, binding)
                        chosen = witnesses(key)
                        if chosen is None:
                            return tgd, binding, key
                        if tgd.conclusion_present_at(current, key[1], chosen):
                            continue
                        if run.steps >= run.max_steps:
                            return run.out_of_budget()
                        run.fire(tgd, binding, chosen)
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
            if phases is not None:
                phases[0].record(time.perf_counter() - pass_started)

        run.beat(round_index)
        # tgd fixpoint reached: no tgd is α-applicable.  Check egds.
        egd_started = time.perf_counter()
        try:
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
                    break
            else:
                return run.finish(ChaseStatus.SUCCESS)
            left, right = violation
            direction = Egd.merge_direction(left, right)
            if direction is None:
                return run.finish(
                    ChaseStatus.FAILURE,
                    f"egd {egd} equated distinct constants {left} and {right}",
                )
            # Cycle detection stores content fingerprints, not frozen
            # atom sets: a 64-character digest per visited state instead
            # of an O(|I|) copy.
            snapshot = current.fingerprint()
            if snapshot in seen:
                return run.finish(
                    ChaseStatus.DIVERGED,
                    "α-chase revisited a state: no successful α-chase "
                    "exists for this α (it must loop forever, cf. "
                    "Example 4.4)",
                )
            seen.add(snapshot)
            run.merge(egd, *direction)
            run.attribute(egd, round_index, merges=1)
        finally:
            if phases is not None:
                phases[1].record(time.perf_counter() - egd_started)
        round_index += 1
        if run.steps >= run.max_steps:
            return run.out_of_budget()


def alpha_chase(
    instance: Instance,
    dependencies: Sequence[Dependency],
    alpha: Alpha,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
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
        fresh_witnesses=False,
    )
    bases = [run.current] * len(tgds)
    with span("chase.alpha"):
        # Phase timing only (tgds vs egds), recorded per saturation pass
        # and per egd step -- same overhead-budget reasoning as the
        # standard engine.
        phases = (span_stats("tgds"), span_stats("egds"))
        return alpha_rounds(
            run, tgds, bases, egds, alpha.witnesses, set(), phases
        )


class AlphaChaseSession:
    """Manual, step-at-a-time α-chase -- Definition 4.1 exposed directly.

    Used by tests and by the worked example of Section 4 to replay the
    exact chase sequences of Example 4.4.  Each call checks applicability
    per the definition and raises if the step is illegal.
    """

    def __init__(self, instance: Instance, alpha: Alpha):
        self.instance = instance.copy()
        self.alpha = alpha
        self.failed = False

    def apply_tgd(self, tgd: Tgd, u: Sequence[Value], v: Sequence[Value]) -> None:
        """α-apply ``tgd`` with tuples ū and v̄ (Definition 4.1)."""
        if len(u) != len(tgd.frontier) or len(v) != len(tgd.premise_only):
            raise DependencyError("tuple lengths do not match x̄ / ȳ")
        u, v = tuple(u), tuple(v)
        if u + v not in tgd.premise_bindings(self.instance):
            raise DependencyError(
                f"{tgd} is not α-applicable: premise fails under ū={u}, v̄={v}"
            )
        witnesses = self.alpha.witnesses((tgd, u, v))
        if tgd.conclusion_present_at(self.instance, u, witnesses):
            raise DependencyError(
                f"{tgd} is not α-applicable: ψ[ū, ᾱ] already holds"
            )
        self.instance.add_all(tgd.conclusion_atoms_at(u, witnesses))

    def apply_egd(self, egd: Egd, left: Value, right: Value) -> bool:
        """Apply ``egd`` to a violating pair; returns False if it fails."""
        if left == right:
            raise DependencyError("egd application needs two distinct values")
        violations = set(egd.violations(self.instance))
        if (left, right) not in violations and (right, left) not in violations:
            raise DependencyError(
                f"{egd} cannot be applied: ({left}, {right}) is not a violation"
            )
        direction = Egd.merge_direction(left, right)
        if direction is None:
            self.failed = True
            return False
        self.instance.replace_value(*direction)
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

"""Rendering chase runs the way the paper writes them.

The provenance ledger (:class:`~repro.obs.provenance.ProvenanceLedger`)
is the chase's step record: a run under
:func:`repro.obs.provenance.recording` appends one ``tgd`` step per
firing and one ``egd`` step per merge, in chase order.  Both
narrations read it:

* **linear replay** (:func:`explain` / :func:`narrate`) replays the
  recorded tgd and egd steps of one run as the chase *sequence* I₀,
  I₁, ..., Iₘ -- exactly the presentation of Example 4.4;
* **DAG-aware narration** (:func:`narrate_why` / :func:`why_not`) walks
  the ledger's *derivation DAG* backwards from one fact to its
  justifying source atoms -- the paper's justification chains
  (Sections 3-4).
"""

from __future__ import annotations

from typing import Iterable, List

from ..core.atoms import Atom
from ..core.instance import Instance
from ..obs.provenance import ProvenanceLedger, Step
from .result import ChaseOutcome


class ExplainedStep:
    """One recorded chase step together with the instance it produced."""

    __slots__ = ("index", "step", "instance")

    def __init__(self, index: int, step: Step, instance: Instance):
        self.index = index
        self.step = step
        self.instance = instance

    def describe(self) -> str:
        if self.step.kind == "tgd":
            binding = ", ".join(
                f"{name} ↦ {value}" for name, value in self.step.binding
            )
            added = ", ".join(repr(atom) for atom in self.step.added)
            name = self.step.dependency or "tgd"
            action = f"α-apply {name}" if not added else f"apply {name}"
            detail = f" with {binding}" if binding else ""
            return f"I{self.index} = I{self.index - 1} ∪ {{{added}}}  ({action}{detail})"
        old, new = self.step.merged
        name = self.step.dependency or "egd"
        return (
            f"I{self.index}: apply {name}, replacing {old} by {new}"
        )


def explain(
    initial: Instance, outcome: ChaseOutcome, steps: Iterable[Step]
) -> List[ExplainedStep]:
    """Replay a recorded run into the I₀, I₁, ... presentation.

    ``steps`` are the ledger steps the run recorded (``ledger.steps``
    of a ``with recording() as ledger:`` block around the chase); its
    tgd and egd steps are replayed on a copy of ``initial`` and every
    other kind is skipped.  Raises ValueError when the run took steps
    but recorded none: it ran without a ledger, so there is nothing
    to replay.
    """
    replayed = [step for step in steps if step.kind in ("tgd", "egd")]
    if outcome.steps and not replayed:
        raise ValueError(
            "the chase recorded no steps; run it under "
            "repro.obs.provenance.recording() to explain it"
        )
    current = initial.copy()
    explained: List[ExplainedStep] = []
    for index, step in enumerate(replayed, start=1):
        if step.kind == "tgd":
            current.add_all(step.added)
        else:
            old, new = step.merged
            if old.is_null:
                current.replace_value(old, new)
        explained.append(ExplainedStep(index, step, current.copy()))
    return explained


def narrate(
    initial: Instance,
    outcome: ChaseOutcome,
    steps: Iterable[Step],
    *,
    show_instances: bool = False,
) -> str:
    """A textual account of a recorded chase run (see :func:`explain`).

    >>> from repro.chase import standard_chase
    >>> from repro.logic import parse_instance
    >>> from repro.dependencies import parse_dependencies
    >>> from repro.obs.provenance import recording
    >>> deps = parse_dependencies(["E(x, y) -> exists z . F(y, z)"])
    >>> with recording() as ledger:
    ...     outcome = standard_chase(parse_instance("E('a','b')"), deps)
    >>> print(narrate(parse_instance("E('a','b')"), outcome, ledger.steps))  # doctest: +ELLIPSIS
    I0 = {E(a, b)}
    I1 = I0 ∪ {F(b, ⊥...)}  (apply tgd with y ↦ b, x ↦ a)
    result: success after 1 step(s), 1 null(s) created, in ...s
    """
    lines: List[str] = []
    atoms = ", ".join(repr(a) for a in initial.sorted_atoms())
    lines.append(f"I0 = {{{atoms}}}")
    for item in explain(initial, outcome, steps):
        lines.append(item.describe())
        if show_instances:
            lines.append(f"    I{item.index} = {item.instance!r}")
    lines.append(
        f"result: {outcome.status.value} after {outcome.steps} step(s), "
        f"{outcome.nulls_created} null(s) created, "
        f"in {outcome.elapsed_seconds:.4f}s"
        + (f" -- {outcome.reason}" if outcome.reason else "")
    )
    return "\n".join(lines)


def narrate_why(ledger: ProvenanceLedger, fact: Atom) -> str:
    """The justification chain of ``fact``, walked off the derivation DAG.

    Where :func:`narrate` replays the whole chase *sequence*, this
    narrates only the derivation cone of one fact: which dependency
    produced it, under which trigger binding and witnesses, recursively
    down to the source atoms -- the justification structure that makes a
    CWA-presolution a CWA-presolution.

    >>> from repro.chase import standard_chase
    >>> from repro.logic import parse_instance
    >>> from repro.dependencies import parse_dependencies
    >>> from repro.obs.provenance import recording
    >>> deps = parse_dependencies(["E(x, y) -> exists z . F(y, z)"])
    >>> with recording() as ledger:
    ...     outcome = standard_chase(parse_instance("E('a','b')"), deps)
    >>> fact = [a for a in outcome.instance if a.relation.name == "F"][0]
    >>> print(narrate_why(ledger, fact))
    F(b, ⊥0) ⇐ tgd[y ↦ b, x ↦ a; z ↦ ⊥0]
      E(a, b) ⇐ source
    """
    return ledger.render_why(fact)


def why_not(ledger: ProvenanceLedger, fact: Atom) -> str:
    """Why ``fact`` is absent from the final result.

    Distinguishes never-derived facts, facts rewritten away by an egd
    merge, and facts retracted by core folding (with the folding
    endomorphism that made them redundant).
    """
    return ledger.why_not(fact)


def survival(ledger: ProvenanceLedger, fact: Atom) -> str:
    """One line on whether ``fact`` survives into the minimal solution.

    A fact *survives* core folding when no recorded retraction dropped
    it; the justification chain (its derivation cone) is what the
    survival is grounded in.
    """
    justification = ledger.why(fact)
    if justification is None:
        return ledger.why_not(fact)
    if fact not in set(ledger.live_facts()):
        return ledger.why_not(fact)
    sources = [
        node.fact for node in justification.chain() if node.kind == "source"
    ]
    grounds = ", ".join(repr(item) for item in sorted(set(sources)))
    return (
        f"{fact!r} survives: no endomorphism folds it away, and it is "
        f"justified from {{{grounds}}}"
    )

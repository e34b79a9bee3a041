"""The derivation provenance ledger (schema ``repro.obs/prov/v1``).

The paper's central notion is *justification*: a CWA-presolution is a
solution in which every fact and every null is justified by a derivation
from the source (Sections 3-4, Examples 2.1/4.4).  This module makes
those justifications first-class observable artifacts.  A
:class:`ProvenanceLedger` records, for every fact produced by any of the
four chase engines (standard, oblivious, semi-naive, α), *how* it came
to be:

* ``source`` -- the fact was an atom of I₀;
* ``tgd`` -- a dependency fired on a trigger binding, with the premise
  facts as parents and the fresh/α witnesses attached;
* ``egd`` -- an egd merge replaced a value throughout the instance,
  rewriting the recorded facts it touched;
* ``retract`` -- core folding dropped the fact via a proper
  endomorphism (so it does *not* survive into the minimal
  CWA-solution), with the folding homomorphism attached;
* ``delete`` -- a source delta removed the fact (or its derivation
  cone) from the instance itself; unlike ``retract`` the fact is gone
  from the *chase state*, not merely from the core, and a later firing
  may legitimately re-derive it (DRed-style re-derivation), which
  re-assigns its producer.

Together the records form a per-run derivation DAG.  :meth:`why` walks
it backwards from a fact to source atoms -- the paper-style
justification chain -- and :meth:`why_not` explains absences (never
derived, merged away, or folded away).

Recording is **opt-in and zero-cost when disabled**, following the same
pattern as the attributed matcher counting in
:mod:`repro.logic.matching`: engines fetch :func:`active_ledger` once
per run and skip all bookkeeping when it is None (the default).  Enable
it with::

    from repro.obs.provenance import recording

    with recording() as ledger:
        outcome = seminaive_chase(source, dependencies)
    print(ledger.render_why(fact))

Ledgers serialize losslessly through the versioned JSON schema
``repro.obs/prov/v1`` (cells use the typed ``repro.io`` encoding, so
constants named like null literals survive) and are fingerprinted via
:func:`repro.engine.fingerprint.fingerprint_ledger`, making them
content-addressable and cacheable alongside solve results.
"""

from __future__ import annotations

import heapq
import json
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom
from ..core.errors import ReproError
from ..core.instance import Instance
from ..core.schema import RelationSymbol
from ..core.terms import Value

SCHEMA = "repro.obs/prov/v1"

#: A trigger binding as recorded: ``((variable name, value), ...)``.
Binding = Tuple[Tuple[str, Value], ...]


class Step:
    """One ledger record; ``kind`` is source/tgd/egd/retract/delete."""

    __slots__ = (
        "index",
        "kind",
        "via",
        "dependency",
        "binding",
        "parents",
        "added",
        "witnesses",
        "merged",
        "rewrites",
        "dropped",
        "mapping",
    )

    def __init__(
        self,
        index: int,
        kind: str,
        *,
        via: str = "",
        dependency: str = "",
        binding: Binding = (),
        parents: Tuple[Atom, ...] = (),
        added: Tuple[Atom, ...] = (),
        witnesses: Binding = (),
        merged: Optional[Tuple[Value, Value]] = None,
        rewrites: Tuple[Tuple[Atom, Atom], ...] = (),
        dropped: Tuple[Atom, ...] = (),
        mapping: Tuple[Tuple[Value, Value], ...] = (),
    ):
        self.index = index
        self.kind = kind
        self.via = via  # engine or algorithm that performed the step
        self.dependency = dependency  # display name of the dep, if any
        self.binding = binding
        self.parents = parents
        self.added = added
        self.witnesses = witnesses  # ((existential var name, value), ...)
        self.merged = merged  # (old value, new value) of an egd merge
        self.rewrites = rewrites  # ((old atom, new atom), ...)
        self.dropped = dropped  # atoms retracted by core folding
        self.mapping = mapping  # folding endomorphism, as value pairs

    def __repr__(self) -> str:
        if self.kind == "source":
            return f"Step({self.index}: source {self.added})"
        if self.kind == "tgd":
            return (
                f"Step({self.index}: {self.dependency or 'tgd'} "
                f"adds {self.added})"
            )
        if self.kind == "egd":
            old, new = self.merged
            return f"Step({self.index}: {self.dependency or 'egd'} {old} ↦ {new})"
        return f"Step({self.index}: {self.kind} {self.dropped})"


class Justification:
    """One node of a justification tree returned by :meth:`why`.

    ``kind`` is ``"source"`` (the fact is a source atom), ``"tgd"`` (the
    fact was added by a firing; ``premises`` justify the parents) or
    ``"egd"`` (the fact is the rewrite of ``premises[0].fact`` under a
    merge).  ``step`` is the producing ledger record.
    """

    __slots__ = ("fact", "kind", "step", "premises")

    def __init__(
        self,
        fact: Atom,
        kind: str,
        step: Step,
        premises: Tuple["Justification", ...] = (),
    ):
        self.fact = fact
        self.kind = kind
        self.step = step
        self.premises = premises

    def chain(self) -> List["Justification"]:
        """The tree flattened depth-first (self first)."""
        out: List[Justification] = [self]
        for premise in self.premises:
            out.extend(premise.chain())
        return out

    def __repr__(self) -> str:
        return f"Justification({self.fact!r} via {self.kind})"


class ProvenanceLedger:
    """An append-only derivation ledger forming a per-run DAG.

    Facts are keyed by the (immutable, hashable) atoms themselves; a
    fact's *producer* is the first step that put it into the instance.
    """

    def __init__(self):
        self._steps: List[Step] = []
        self._producers: Dict[Atom, int] = {}
        self._retracted: Dict[Atom, int] = {}  # folded away (kind retract)
        self._deleted: Dict[Atom, int] = {}  # removed by delta (kind delete)
        self._live: Set[Atom] = set()
        # The chase instance implied by the steps: like _live but keeps
        # core-folded atoms (folds shrink the core, not the chase).
        self._chase_state: Set[Atom] = set()
        self._merges: int = 0
        # Fact -> indexes of the tgd steps using it as a parent and the
        # egd steps rewriting it: the edges downstream_cone follows.
        self._consumers: Dict[Atom, List[int]] = {}

    def clear(self) -> None:
        """Reset the ledger in place (keeping external references valid).

        The incremental session resets its ledger like this when it
        falls back to a from-scratch re-solve: holders of the ledger
        object (e.g. the CLI's ``--provenance`` writer) keep observing
        the fresh recording.
        """
        self._steps.clear()
        self._producers.clear()
        self._retracted.clear()
        self._deleted.clear()
        self._live.clear()
        self._chase_state.clear()
        self._merges = 0
        self._consumers.clear()

    # -- recording (called by the engines) ------------------------------

    def _apply(self, step: Step) -> None:
        """Append ``step`` and update every index it moves.

        The one write path of the ledger: each ``record_*`` method builds
        a step and applies it, and :meth:`ingest` applies the decoded
        steps, so a replayed ledger has the indexes of the recorded one.
        ``source``/``tgd`` steps produce their added facts (a ``tgd``
        consumes its parents), an ``egd`` step consumes and rewrites its
        facts, ``retract`` drops facts from the core and ``delete`` from
        the chase state too.
        """
        self._steps.append(step)
        kind = step.kind
        index = step.index
        consumers = self._consumers
        if kind == "source" or kind == "tgd":
            for item in step.parents:
                consumers.setdefault(item, []).append(index)
            for item in step.added:
                self._produce(item, index)
        elif kind == "egd":
            for before, after in step.rewrites:
                consumers.setdefault(before, []).append(index)
                self._live.discard(before)
                self._chase_state.discard(before)
                self._produce(after, index)
            self._merges += 1
        else:
            removed = self._retracted if kind == "retract" else self._deleted
            for item in step.dropped:
                removed.setdefault(item, index)
                self._live.discard(item)
                if kind == "delete":
                    self._chase_state.discard(item)

    def _produce(self, item: Atom, index: int) -> None:
        """Register ``item`` as produced by step ``index``.

        A fact's producer is the first step that put it into the
        instance -- unless the fact was *deleted* in between, in which
        case the re-derivation becomes the new producer (``why`` must
        explain the justification that currently holds, not the one the
        delta destroyed).
        """
        if item in self._deleted:
            del self._deleted[item]
            self._producers[item] = index
        else:
            self._producers.setdefault(item, index)
        self._live.add(item)
        self._chase_state.add(item)

    def record_source(self, atoms: Iterable[Atom]) -> None:
        """Register the atoms of I₀.  Idempotent per atom.

        Atoms previously removed by a ``delete`` step are treated as
        fresh again: re-inserting a deleted source atom yields a new
        source record (its old derivation no longer exists).
        """
        # A set difference at C level, on the atoms' stored hashes: a
        # continuation chase passes its whole state, of which only the
        # edit's insertions are new.  The deleted members are found the
        # same way, as members minus the members that were not deleted,
        # so ``_deleted`` is probed, never walked: in a stream whose
        # deleted rows never come back it only grows.
        members = (
            atoms.frozen() if isinstance(atoms, Instance) else frozenset(atoms)
        )
        fresh = members.difference(self._producers)
        if self._deleted:
            fresh |= members.difference(members.difference(self._deleted))
        if not fresh:
            return
        self._apply(
            Step(
                len(self._steps),
                "source",
                added=tuple(sorted(fresh, key=Atom.sort_key)),
            )
        )

    def record_firing(
        self,
        via: str,
        tgd,
        premise_match,
        added: Sequence[Atom],
        witnesses: Sequence[Value],
    ) -> None:
        """One tgd firing: trigger binding, parent facts, produced facts.

        ``premise_match`` is the engine's substitution; the binding and
        the parent facts (premise atoms under the binding) are derived
        here so the engines stay one-call-per-firing.  FO premises
        (some s-t tgds) have no atom list; their parents are empty.
        """
        binding = tuple(
            (variable.name, premise_match[variable])
            for variable in tuple(tgd.frontier) + tuple(tgd.premise_only)
        )
        if tgd.premise_atoms is not None:
            parents = tuple(
                premise_match.apply(item) for item in tgd.premise_atoms
            )
        else:
            parents = ()
        witness_pairs = tuple(
            (variable.name, value)
            for variable, value in zip(tgd.existential, witnesses)
        )
        self._apply(
            Step(
                len(self._steps),
                "tgd",
                via=via,
                dependency=tgd.name or "",
                binding=binding,
                parents=parents,
                added=tuple(added),
                witnesses=witness_pairs,
            )
        )

    def record_merge(self, via: str, egd, old: Value, new: Value) -> None:
        """One egd merge ``old ↦ new``; rewrites every chase fact using old.

        The rewrite set is the *chase state*, not just the live facts:
        ``Instance.replace_value`` rewrites core-folded atoms too, and an
        incremental continuation can merge after folds were recorded.
        """
        rewrites = tuple(
            (item, item.rename_values({old: new}))
            for item in sorted(
                (item for item in self._chase_state if old in item.args),
                key=Atom.sort_key,
            )
        )
        self._apply(
            Step(
                len(self._steps),
                "egd",
                via=via,
                dependency=getattr(egd, "name", "") or "",
                merged=(old, new),
                rewrites=rewrites,
            )
        )

    def record_retraction(
        self,
        via: str,
        dropped: Iterable[Atom],
        mapping: Dict[Value, Value],
        *,
        kind: str = "retract",
    ) -> None:
        """A step that removes facts from the result.

        ``kind="retract"`` (the default) is core folding: ``dropped``
        leaves the minimal CWA-solution via the endomorphism
        ``mapping``, but stays part of the chase state.  ``kind=
        "delete"`` is a source-delta removal: ``dropped`` (the deleted
        atoms plus their derivation cone) leaves the chase state itself
        and may later be re-derived.
        """
        if kind not in ("retract", "delete"):
            raise ReproError(f"unknown retraction kind {kind!r}")
        dropped = tuple(sorted(dropped))
        if not dropped:
            return
        self._apply(
            Step(
                len(self._steps),
                kind,
                via=via,
                dropped=dropped,
                mapping=tuple(
                    sorted(
                        ((k, v) for k, v in mapping.items() if k != v),
                        key=lambda pair: (str(pair[0]), str(pair[1])),
                    )
                ),
            )
        )

    def record_deletion(self, via: str, dropped: Iterable[Atom]) -> None:
        """Convenience wrapper: a delta removed ``dropped`` from I₀'s cone."""
        self.record_retraction(via, dropped, {}, kind="delete")

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._steps)

    @property
    def steps(self) -> Tuple[Step, ...]:
        return tuple(self._steps)

    def facts(self) -> Tuple[Atom, ...]:
        """Every fact the ledger ever saw, sorted."""
        return tuple(sorted(self._producers))

    def live_facts(self) -> Tuple[Atom, ...]:
        """Facts neither rewritten away by a merge nor retracted."""
        return tuple(sorted(self._live))

    def producer(self, fact: Atom) -> Optional[Step]:
        """The step that first produced ``fact``, or None."""
        index = self._producers.get(fact)
        return self._steps[index] if index is not None else None

    def has_merges(self) -> bool:
        """True when the ledger recorded at least one egd merge.

        Merge steps do not carry the premise facts that triggered them,
        so the incremental path cannot compute exact deletion cones
        through them and falls back to a full re-solve.
        """
        return self._merges > 0

    def chase_facts(self) -> Tuple[Atom, ...]:
        """The current chase state implied by the ledger, sorted.

        Tracks the steps: ``source``/``tgd`` add, ``egd`` rewrites,
        ``delete`` removes -- while ``retract`` (core folding) does not
        touch it, because folded facts leave the *core*, not the chase
        instance.  This is what :meth:`DeltaSession.from_ledger
        <repro.incremental.DeltaSession>` resumes from.
        """
        return tuple(sorted(self._chase_state))

    def changed_facts(self, since: int) -> Set[Atom]:
        """Facts the steps from ``since`` on moved into or out of the chase.

        Every fact a ``source``/``tgd`` step added, an ``egd`` step
        rewrote (both forms) or a ``delete`` step removed -- so a fact
        deleted and re-derived is included, and one added and rewritten
        within the steps may be.  ``retract`` steps change the core, not
        the chase state, and do not count.
        """
        changed: Set[Atom] = set()
        for step in self._steps[since:]:
            if step.kind == "egd":
                for before, after in step.rewrites:
                    changed.add(before)
                    changed.add(after)
            elif step.kind == "delete":
                changed.update(step.dropped)
            elif step.kind != "retract":
                changed.update(step.added)
        return changed

    def downstream_cone(self, roots: Iterable[Atom]) -> Set[Atom]:
        """``roots`` plus every fact derived (transitively) from them.

        The DRed over-deletion set: a fact joins the cone when some
        recorded firing used a cone member as a parent, or an egd merge
        rewrote a cone member into it.  One forward pass suffices --
        every derivation edge points from an earlier step to a later
        one, even across incremental continuation rounds.

        The pass visits only the steps that consume a cone member, in
        step order, through the consumer index: a fact that joins the
        cone at step ``k`` reaches the consumers recorded after ``k``,
        exactly as in a scan of every step.
        """
        cone: Set[Atom] = set(roots)
        pending: List[int] = []
        for item in cone:
            pending.extend(self._consumers.get(item, ()))
        heapq.heapify(pending)
        done: Set[int] = set()
        while pending:
            index = heapq.heappop(pending)
            if index in done:
                continue
            done.add(index)
            step = self._steps[index]
            if step.kind == "tgd":
                joined = step.added
            else:
                joined = [
                    after for before, after in step.rewrites if before in cone
                ]
            for item in joined:
                if item not in cone:
                    cone.add(item)
                    for consumer in self._consumers.get(item, ()):
                        if consumer > index:
                            heapq.heappush(pending, consumer)
        return cone

    def why(self, fact: Atom) -> Optional[Justification]:
        """The justification tree of ``fact``: its derivation from I₀.

        Returns None when the ledger never saw the fact (use
        :meth:`why_not` for the explanation).  The result is a tree over
        the derivation DAG; shared parents are re-justified per
        occurrence (cycle-free by construction: every producer step is
        strictly earlier than its consumers).
        """
        index = self._producers.get(fact)
        if index is None:
            return None
        return self._justify(fact, index)

    def _justify(self, fact: Atom, index: int) -> Justification:
        step = self._steps[index]
        if step.kind == "source":
            return Justification(fact, "source", step)
        if step.kind == "tgd":
            premises = tuple(
                self._justify_parent(parent, index) for parent in step.parents
            )
            return Justification(fact, "tgd", step, premises)
        # egd rewrite: justify the pre-merge form(s) of this fact.
        origins = tuple(
            before for before, after in step.rewrites if after == fact
        )
        premises = tuple(
            self._justify_parent(origin, index) for origin in origins
        )
        return Justification(fact, "egd", step, premises)

    def _justify_parent(self, parent: Atom, consumer_index: int) -> Justification:
        producer_index = self._producers.get(parent)
        if producer_index is None or producer_index >= consumer_index:
            # A parent the ledger did not track (e.g. recording was
            # enabled mid-run): surface it as an unexplained leaf.
            return Justification(
                parent, "source", Step(-1, "source", added=(parent,))
            )
        return self._justify(parent, producer_index)

    def why_not(self, fact: Atom) -> str:
        """A one-line account of why ``fact`` is not in the final result."""
        delete_index = self._deleted.get(fact)
        if delete_index is not None:
            step = self._steps[delete_index]
            return (
                f"{fact!r} was deleted by delta (via {step.via or 'delta'}): "
                f"the source edit removed it or every derivation of it"
            )
        retract_index = self._retracted.get(fact)
        if retract_index is not None:
            step = self._steps[retract_index]
            folded = ", ".join(f"{old} ↦ {new}" for old, new in step.mapping)
            return (
                f"{fact!r} was retracted by core {step.via}: a proper "
                f"endomorphism ({folded}) maps it into the surviving "
                f"subinstance, so it is unnecessary in the minimal "
                f"CWA-solution"
            )
        producer_index = self._producers.get(fact)
        if producer_index is None:
            return (
                f"{fact!r} was never derived: no source atom, tgd firing, "
                f"or egd rewrite produced it"
            )
        if fact in self._live:
            return f"{fact!r} is present: see why({fact!r})"
        # Produced, not retracted, not live: an egd merge rewrote it.
        for step in self._steps[producer_index:]:
            if step.kind != "egd":
                continue
            for before, after in step.rewrites:
                if before == fact:
                    old, new = step.merged
                    return (
                        f"{fact!r} was rewritten to {after!r} by egd "
                        f"{step.dependency or 'merge'} ({old} ↦ {new})"
                    )
        return f"{fact!r} is no longer live"  # pragma: no cover - defensive

    def render_why(self, fact: Atom) -> str:
        """Paper-style justification chain of ``fact``, as text.

        Each line is one derivation link::

            G(⊥1, ⊥2) ⇐ d3[y ↦ a, x ↦ ⊥1; z ↦ ⊥2]
              F(a, ⊥1) ⇐ d2[x ↦ a, y ↦ b; z1 ↦ ⊥0, z2 ↦ ⊥1]
                N(a, b) ⇐ source

        Falls back to :meth:`why_not` when the fact was never derived.
        """
        justification = self.why(fact)
        if justification is None:
            return self.why_not(fact)
        lines: List[str] = []
        self._render(justification, 0, lines)
        return "\n".join(lines)

    def _render(
        self, justification: Justification, depth: int, lines: List[str]
    ) -> None:
        indent = "  " * depth
        step = justification.step
        if justification.kind == "source":
            lines.append(f"{indent}{justification.fact!r} ⇐ source")
            return
        if justification.kind == "tgd":
            name = step.dependency or "tgd"
            binding = ", ".join(f"{v} ↦ {value}" for v, value in step.binding)
            witnesses = ", ".join(
                f"{v} ↦ {value}" for v, value in step.witnesses
            )
            inside = binding + (f"; {witnesses}" if witnesses else "")
            lines.append(f"{indent}{justification.fact!r} ⇐ {name}[{inside}]")
        else:
            old, new = step.merged
            name = step.dependency or "egd"
            lines.append(
                f"{indent}{justification.fact!r} ⇐ {name} merge[{old} ↦ {new}]"
            )
        for premise in justification.premises:
            self._render(premise, depth + 1, lines)

    # -- serialization (repro.obs/prov/v1) ------------------------------

    def to_payload(self) -> dict:
        """The ledger as a JSON-serializable dict (stable ordering)."""
        return {
            "schema": SCHEMA,
            "steps": [_step_to_json(step) for step in self._steps],
        }

    def dumps(self, indent: Optional[int] = None) -> str:
        """Deterministic JSON rendering of :meth:`to_payload`."""
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)

    @classmethod
    def from_payload(cls, payload: dict) -> "ProvenanceLedger":
        """Rebuild a ledger; the inverse of :meth:`to_payload`."""
        ledger = cls()
        ledger.ingest(payload)
        return ledger

    def ingest(self, payload: dict) -> None:
        """Fill this (empty) ledger from a ``repro.obs/prov/v1`` payload.

        Applies each decoded step through :meth:`_apply`, the path the
        live recording takes, so producers, consumers, live facts,
        retractions, and deletions all round-trip exactly -- including
        the re-derivation semantics of facts deleted and later
        re-produced.
        """
        if self._steps:
            raise ReproError("cannot ingest into a non-empty ledger")
        if not isinstance(payload, dict):
            raise ReproError(
                f"provenance payload must be an object, got {payload!r}"
            )
        version = payload.get("schema")
        if version != SCHEMA:
            raise ReproError(
                f"unsupported provenance schema {version!r} "
                f"(expected {SCHEMA!r})"
            )
        steps = payload.get("steps", ())
        if not isinstance(steps, (list, tuple)):
            raise ReproError(
                f"provenance steps must be a list, got {steps!r}"
            )
        for index, body in enumerate(steps):
            self._apply(_step_from_json(index, body))

    @classmethod
    def loads(cls, text: str) -> "ProvenanceLedger":
        """Inverse of :meth:`dumps`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReproError(f"invalid provenance JSON: {error}") from None
        return cls.from_payload(payload)

    def fingerprint(self) -> str:
        """Content digest of the ledger (stable across processes).

        Delegates to :func:`repro.engine.fingerprint.fingerprint_ledger`
        so provenance artifacts are content-addressable next to solve
        results.  Round-tripping through ``repro.obs/prov/v1`` preserves
        the fingerprint exactly.
        """
        from ..engine.fingerprint import fingerprint_ledger  # lazy: no cycle

        return fingerprint_ledger(self)


# ----------------------------------------------------------------------
# JSON encoding helpers (cells use the typed repro.io codec)
# ----------------------------------------------------------------------


def _atom_to_json(item: Atom) -> dict:
    from ..io import cell_to_json

    return {
        "rel": item.relation.name,
        "args": [cell_to_json(value) for value in item.args],
    }


def _atom_from_json(body) -> Atom:
    from ..io import cell_from_json

    try:
        name = body["rel"]
        args = tuple(cell_from_json(cell) for cell in body["args"])
    except (TypeError, KeyError):
        raise ReproError(f"malformed provenance atom {body!r}") from None
    return Atom(RelationSymbol(name, len(args)), args)


def _value_to_json(value: Value):
    from ..io import cell_to_json

    return cell_to_json(value)


def _value_from_json(cell) -> Value:
    from ..io import cell_from_json

    return cell_from_json(cell)


def _step_to_json(step: Step) -> dict:
    body: Dict[str, object] = {"kind": step.kind}
    if step.via:
        body["via"] = step.via
    if step.dependency:
        body["dep"] = step.dependency
    if step.binding:
        body["binding"] = [
            [name, _value_to_json(value)] for name, value in step.binding
        ]
    if step.parents:
        body["parents"] = [_atom_to_json(item) for item in step.parents]
    if step.added:
        body["added"] = [_atom_to_json(item) for item in step.added]
    if step.witnesses:
        body["witnesses"] = [
            [name, _value_to_json(value)] for name, value in step.witnesses
        ]
    if step.merged is not None:
        body["merged"] = [
            _value_to_json(step.merged[0]),
            _value_to_json(step.merged[1]),
        ]
    if step.rewrites:
        body["rewrites"] = [
            [_atom_to_json(before), _atom_to_json(after)]
            for before, after in step.rewrites
        ]
    if step.dropped:
        body["dropped"] = [_atom_to_json(item) for item in step.dropped]
    if step.mapping:
        body["mapping"] = [
            [_value_to_json(old), _value_to_json(new)]
            for old, new in step.mapping
        ]
    return body


def _step_from_json(index: int, body) -> Step:
    if not isinstance(body, dict) or "kind" not in body:
        raise ReproError(f"malformed provenance step {body!r}")
    kind = body["kind"]
    if kind not in ("source", "tgd", "egd", "retract", "delete"):
        raise ReproError(f"unknown provenance step kind {kind!r}")
    # A wrong shape anywhere below (a non-list field, a pair that is not
    # a pair, a short ``merged``) surfaces as one of these.
    try:
        merged = body.get("merged")
        if merged is not None:
            old, new = merged
            merged = (_value_from_json(old), _value_from_json(new))
        elif kind == "egd":
            raise ReproError(f"egd provenance step {index} has no merged pair")
        return Step(
            index,
            kind,
            via=body.get("via", ""),
            dependency=body.get("dep", ""),
            binding=tuple(
                (name, _value_from_json(cell))
                for name, cell in body.get("binding", ())
            ),
            parents=tuple(
                _atom_from_json(it) for it in body.get("parents", ())
            ),
            added=tuple(_atom_from_json(it) for it in body.get("added", ())),
            witnesses=tuple(
                (name, _value_from_json(cell))
                for name, cell in body.get("witnesses", ())
            ),
            merged=merged,
            rewrites=tuple(
                (_atom_from_json(before), _atom_from_json(after))
                for before, after in body.get("rewrites", ())
            ),
            dropped=tuple(
                _atom_from_json(it) for it in body.get("dropped", ())
            ),
            mapping=tuple(
                (_value_from_json(old), _value_from_json(new))
                for old, new in body.get("mapping", ())
            ),
        )
    except (TypeError, ValueError, KeyError, IndexError):
        raise ReproError(f"malformed provenance step {index}: {body!r}") from None


# ----------------------------------------------------------------------
# Activation (mirrors the attributed() matcher-counting idiom)
# ----------------------------------------------------------------------

#: The ledger engines record into, or None (the default: recording off).
_ACTIVE: Optional[ProvenanceLedger] = None


def active_ledger() -> Optional[ProvenanceLedger]:
    """The currently installed ledger, or None when recording is off.

    Engines call this once per run and skip every recording site when it
    returns None, so the default configuration pays one global read per
    chase, not per step.
    """
    return _ACTIVE


class recording:
    """Install a ledger for the duration of the block.

    A hand-rolled context manager (not ``@contextmanager``) mirroring
    :class:`repro.logic.matching.attributed`.  Nesting restores the
    previous ledger on exit; the block yields the ledger::

        with recording() as ledger:
            solve(setting, source)
        ledger.render_why(fact)
    """

    __slots__ = ("ledger", "_previous")

    def __init__(self, ledger: Optional[ProvenanceLedger] = None):
        self.ledger = ledger if ledger is not None else ProvenanceLedger()

    def __enter__(self) -> ProvenanceLedger:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self.ledger
        return self.ledger

    def __exit__(self, *exc_info) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        return False

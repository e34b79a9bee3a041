"""Incremental core computation: blockwise minimization with a memo.

The blockwise core pass (:mod:`repro.homomorphism.blocks`) minimizes
each Gaifman null-block of the canonical solution independently.  After
a small source edit most blocks are untouched, and re-running the fold
search over them is where a from-scratch re-solve spends almost all of
its core time.  This module memoizes the per-block outcome keyed by the
block's *owned atom set* (the atoms mentioning its nulls):

* a block whose owned set is unchanged and whose previous pass found it
  unfoldable is **skipped** outright;
* a block whose owned set is unchanged and whose previous pass folded it
  replays the recorded endomorphism (**replay**: drop the owned atoms,
  add their images) without any fold search;
* everything else is **re-minimized** from scratch.

Soundness of the skip rests on two facts.  Foldability of a block is
monotone in the atoms available as fold images, and those images must
agree with the owned atoms on their constant positions -- so a block
that was unfoldable last round can only have become foldable if some
*changed* atom is a potential image of one of its owned atoms
(:func:`_may_image`).  Unchanged blocks failing that touch test are
provably still unfoldable, *provided no fold ever crosses blocks*:
the block kernel :func:`~repro.homomorphism.blocks.minimize_block`
reports a cross-block fold and this module then falls back to a full
:func:`~repro.homomorphism.blocks.blockwise_core` pass and clears the
memo (``incremental.core_fallbacks``).  The fallback keeps the result
exact in all cases; the memo is a speedup, never an approximation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.terms import Null
from ..homomorphism.blocks import block_index, blockwise_core, minimize_block
from ..obs import counter, span
from ..obs.provenance import active_ledger

#: Memo record: ``(folded, mapping, images)``.  ``folded`` False marks an
#: unfoldable block (skip); True carries the composed endomorphism and
#: the image atoms for replay.
_Record = Tuple[bool, Dict, Tuple[Atom, ...]]


class BlockMemo:
    """Per-session memo of block minimization outcomes.

    Keys are frozensets of owned atoms -- a pure function of the block's
    content, stable across re-solves as long as the block (and the fold
    results of the blocks processed before it) did not change.
    """

    __slots__ = ("records",)

    def __init__(self):
        self.records: Dict[FrozenSet[Atom], _Record] = {}

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)


def _may_image(changed: Atom, owned: Atom) -> bool:
    """Can ``changed`` serve as a fold image of ``owned``?

    A block fold maps the block's nulls and fixes everything else, so an
    image of ``owned`` must share its relation and agree with it at
    every position holding a constant.  Sharing a value is *not*
    sufficient grounds to skip this test: a new atom matching the owned
    atom's constant skeleton can enable a fold even when it shares no
    null with the block.
    """
    if changed.relation != owned.relation:
        return False
    for changed_arg, owned_arg in zip(changed.args, owned.args):
        if not isinstance(owned_arg, Null) and changed_arg != owned_arg:
            return False
    return True


def _touched(owned: Iterable[Atom], changed: Dict[str, List[Atom]]) -> bool:
    """True if any changed atom is a potential fold image of the block.

    ``changed`` holds the changed atoms by relation name.
    """
    for owned_atom in owned:
        for changed_atom in changed.get(owned_atom.relation.name, ()):
            if _may_image(changed_atom, owned_atom):
                return True
    return False


def incremental_core(
    instance: Instance, changed: Iterable[Atom], memo: BlockMemo
) -> Tuple[Instance, bool]:
    """The core of ``instance``, reusing ``memo`` from the previous solve.

    ``changed`` are the atoms added to or removed from the canonical
    solution since the memo was last refreshed (pass all atoms, or an
    empty memo, for a from-scratch pass).  Returns ``(core, fell_back)``
    where ``fell_back`` reports that a cross-block fold forced a full
    :func:`blockwise_core` pass.  The memo is refreshed in place either
    way: entries for vanished blocks are dropped, so it never grows
    beyond the live block count.
    """
    changed_by_relation: Dict[str, List[Atom]] = {}
    for atom in changed:
        changed_by_relation.setdefault(atom.relation.name, []).append(atom)
    with span("core.incremental"):
        current = instance.copy()
        new_records: Dict[FrozenSet[Atom], _Record] = {}
        # One block index for the whole pass: folds only delete atoms of
        # the block being folded, so every later block's owned set at its
        # turn is exactly its owned set now (and replays below delete
        # only the replayed block's own atoms).
        for owned in block_index(current):
            key = frozenset(owned)
            record = memo.records.get(key)
            if record is not None and not _touched(owned, changed_by_relation):
                folded, mapping, images = record
                if not folded:
                    counter("incremental.blocks_skipped").inc()
                    new_records[key] = record
                    continue
                if all(item in current for item in images):
                    for item in owned:
                        current.discard(item)
                    for item in images:
                        current.add(item)
                    ledger = active_ledger()
                    if ledger is not None:
                        ledger.record_retraction(
                            "incremental", key.difference(images), mapping
                        )
                    counter("incremental.blocks_replayed").inc()
                    new_records[key] = record
                    continue
                # An image atom is gone: the recorded fold no longer
                # applies verbatim; fall through to a fresh minimize.
            counter("incremental.blocks_reminimized").inc()
            fold = minimize_block(current, owned, via="incremental")
            if fold is None:
                new_records[key] = (False, {}, ())
                continue
            mapping, images, crossed = fold
            if crossed:
                counter("incremental.core_fallbacks").inc()
                memo.clear()
                return blockwise_core(instance), True
            new_records[key] = (True, mapping, images)
        memo.records = new_records
        return current, False

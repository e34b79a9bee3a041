"""Incremental core computation: a persistent block index with a memo.

The blockwise core pass (:mod:`repro.homomorphism.blocks`) minimizes
each Gaifman null-block of the canonical solution independently.  After
a small source edit most blocks are untouched, and re-running the fold
search over them is where a from-scratch re-solve spends almost all of
its core time.  :class:`BlockMemo` therefore keeps the whole core pass
alive between edits:

* the **core** itself -- the canonical solution with every folded
  block's dropped atoms removed;
* every **block** -- its owned atoms (the atoms mentioning its nulls)
  and whether its minimization folded it;
* a **touch index** from each owned atom's *constant skeleton* -- its
  relation, its constant positions and the constants there -- to the
  blocks owning an atom of that skeleton.

An edit of the canonical solution is a set of changed atoms.  Only the
blocks it reaches are revisited: the blocks holding a null of a changed
atom (their owned set, or the block itself, changed), and the blocks
the touch index finds for a changed atom.  Those blocks are restored to
their canonical atoms, re-split into blocks over the edited instance,
and **re-minimized**; every other block keeps its outcome without being
visited, so the work of an edit is proportional to the edit, not to the
instance.

Soundness of keeping an outcome rests on two facts.  Foldability of a
block is monotone in the atoms available as fold images, and those
images must agree with the owned atoms on their constant positions -- so
a block that was unfoldable can only have become foldable if some
*changed* atom is a potential image of one of its owned atoms, which is
exactly what the touch index looks up (:meth:`BlockMemo.touched_by`).
A folded block's images are such potential images too, so a folded
block is revisited whenever one of its images changes.  Both
arguments hold *provided no fold ever crosses blocks*: the block kernel
:func:`~repro.homomorphism.blocks.minimize_block` reports a cross-block
fold and this module then falls back to a full
:func:`~repro.homomorphism.blocks.blockwise_core` pass and clears the
memo (``incremental.core_fallbacks``).  The fallback keeps the result
exact in all cases; the memo is a speedup, never an approximation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.terms import Null, Value
from ..homomorphism.blocks import block_index, blockwise_core, minimize_block
from ..obs import counter, span

def _skeleton(atom: Atom) -> Tuple[Tuple[int, ...], Tuple[Value, ...]]:
    """The constant positions of ``atom`` and the constants there."""
    positions = tuple(
        index
        for index, value in enumerate(atom.args)
        if value.__class__ is not Null
    )
    return positions, tuple(atom.args[index] for index in positions)


class BlockMemo:
    """Per-session state of the incremental core pass.

    Holds the maintained core, its blocks by id as ``(owned atoms,
    folded)``, the owning block of every null, and the touch index.
    ``core`` is None while there is no state to continue from: the next
    :func:`incremental_core` call then makes a from-scratch pass.
    """

    __slots__ = ("core", "blocks", "block_of", "touch", "folded", "_next_id")

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.core: Optional[Instance] = None
        self.blocks: Dict[int, Tuple[List[Atom], bool]] = {}
        self.block_of: Dict[Null, int] = {}
        # relation -> constant positions -> constants -> block ids
        self.touch: Dict = {}
        self.folded = 0
        self._next_id = 0

    def __len__(self) -> int:
        return len(self.blocks)

    def touched_by(self, atom: Atom) -> Set[int]:
        """Ids of the blocks ``atom`` is a potential fold image for.

        A block fold maps the block's nulls and fixes everything else,
        so an image of an owned atom shares its relation and agrees with
        it at every constant position.  Sharing a value is not needed: a
        new atom matching an owned atom's constant skeleton can enable a
        fold even when it shares no null with the block.  One lookup per
        indexed skeleton of ``atom``'s relation answers the test for
        every owned atom at once.
        """
        found: Set[int] = set()
        for positions, table in self.touch.get(atom.relation, {}).items():
            ids = table.get(tuple(atom.args[index] for index in positions))
            if ids:
                found.update(ids)
        return found

    def register(self, owned: List[Atom], folded: bool) -> None:
        """Record a minimized block."""
        block_id = self._next_id
        self._next_id += 1
        self.blocks[block_id] = (owned, folded)
        self.folded += folded
        for atom in owned:
            for value in atom.args:
                if value.__class__ is Null:
                    self.block_of[value] = block_id
            positions, constants = _skeleton(atom)
            self.touch.setdefault(atom.relation, {}).setdefault(
                positions, {}
            ).setdefault(constants, set()).add(block_id)

    def unregister(self, block_id: int) -> Tuple[List[Atom], bool]:
        """Forget a block; returns its ``(owned atoms, folded)``."""
        owned, folded = self.blocks.pop(block_id)
        self.folded -= folded
        skeletons = set()
        for atom in owned:
            for value in atom.args:
                if value.__class__ is Null:
                    self.block_of.pop(value, None)
            skeletons.add((atom.relation, *_skeleton(atom)))
        for relation, positions, constants in skeletons:
            by_positions = self.touch[relation]
            by_constants = by_positions[positions]
            ids = by_constants[constants]
            ids.discard(block_id)
            if not ids:
                del by_constants[constants]
                if not by_constants:
                    del by_positions[positions]
                    if not by_positions:
                        del self.touch[relation]
        return owned, folded


def incremental_core(
    instance: Instance, changed: Iterable[Atom], memo: BlockMemo
) -> Tuple[Instance, bool]:
    """The core of ``instance``, continuing from ``memo``'s last pass.

    ``changed`` are the atoms added to or removed from the canonical
    solution since that pass; atoms present in both may be passed too,
    and their blocks are re-minimized.  A cleared memo makes a
    from-scratch pass, and ``changed`` is then ignored.  Returns
    ``(core, fell_back)`` where ``core`` is the caller's own copy and
    ``fell_back`` reports that a cross-block fold forced a full
    :func:`blockwise_core` pass (which clears the memo).
    """
    with span("core.incremental"):
        if memo.core is None:
            return _full_pass(instance, memo)
        return _delta_pass(instance, changed, memo)


def _fall_back(instance: Instance, memo: BlockMemo) -> Tuple[Instance, bool]:
    counter("incremental.core_fallbacks").inc()
    memo.clear()
    return blockwise_core(instance), True


def _minimize_into(
    memo: BlockMemo, working: Instance, blocks: List[List[Atom]]
) -> bool:
    """Minimize ``blocks`` in order and register them; False on a crossing."""
    for owned in blocks:
        counter("incremental.blocks_reminimized").inc()
        folded, crossed = minimize_block(working, owned, via="incremental")
        if crossed:
            return False
        memo.register(owned, folded)
    return True


def _full_pass(instance: Instance, memo: BlockMemo) -> Tuple[Instance, bool]:
    memo.clear()
    working = instance.copy()
    # Folds delete only atoms of the block being folded, so one block
    # index serves the whole pass.
    if not _minimize_into(memo, working, block_index(working)):
        return _fall_back(instance, memo)
    memo.core = working
    return working.copy(), False


def _delta_pass(
    instance: Instance, changed: Iterable[Atom], memo: BlockMemo
) -> Tuple[Instance, bool]:
    core = memo.core
    changed = sorted(changed, key=Atom.sort_key)
    revisit: Set[int] = set()
    touched: Set[int] = set()
    for atom in changed:
        for value in atom.args:
            if value.__class__ is Null and value in memo.block_of:
                revisit.add(memo.block_of[value])
        touched.update(memo.touched_by(atom))
    counter("incremental.blocks_touched").inc(len(touched))
    revisit.update(touched)

    # Restore the revisited blocks to their canonical atoms, then apply
    # the edit; what remains of their atoms, plus the added null-carrying
    # atoms, is re-split into blocks over the edited instance.
    region: Set[Atom] = set()
    for block_id in sorted(revisit):
        owned, folded = memo.unregister(block_id)
        region.update(owned)
        if folded:
            for atom in owned:
                if atom in instance:
                    core.add(atom)
    for atom in changed:
        if atom in instance:
            core.add(atom)
            if atom.nulls:
                region.add(atom)
        else:
            core.discard(atom)

    # Blocks never visited keep their outcome: reused without a search.
    counter("incremental.blocks_skipped").inc(len(memo.blocks) - memo.folded)
    counter("incremental.blocks_replayed").inc(memo.folded)
    blocks = block_index(Instance(atom for atom in region if atom in instance))
    if not _minimize_into(memo, core, blocks):
        return _fall_back(instance, memo)
    return core.copy(), False

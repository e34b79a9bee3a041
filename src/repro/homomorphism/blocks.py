"""Blockwise core computation (the Fagin-Kolaitis-Popa "blocks" idea).

The *Gaifman blocks* of an instance are the connected components of its
nulls under co-occurrence in an atom.  Every null-carrying atom belongs
to exactly one block (its *owned* atoms), and any endomorphism
decomposes blockwise: fixing all values outside one block's nulls still
yields an endomorphism, because no atom mixes nulls of two blocks.
Hence

* an instance is a core iff no single block can be folded -- which is
  how :func:`~repro.homomorphism.core_computation.fold_step` certifies
  cores, one small block pattern at a time, and
* the core is computed by minimizing each block in turn against the
  current instance.

One pass over one working copy suffices, and its result is a core
without any further certification.  The kernel
(:func:`minimize_block`) asks the matcher for a match of a block's
pattern into ``I \\ {A}`` by skipping ``A`` in the search
(``match(..., without=A)``), so a retract attempt reads the copy and
never writes it; the copy changes only when a fold discards the atoms
it drops.  Why one pass is exact:

* block folds only delete atoms, and only atoms of their own block.  A
  fold maps the block's atoms onto atoms that are already present, and
  the atoms outside the block are fixed.  The block->owned-atoms index
  built once up front (:func:`block_index`) therefore stays exact for
  every later block.  Folds may map nulls onto another block's nulls;
  the image atoms then belong to that block and are still present, so
  the argument is unaffected;
* so the instance only shrinks after a block's last kernel round, and
  that round failed against a superset of the final instance: for every
  surviving atom A no match of the survivors' pattern into ``I \\ {A}``
  existed then, so none exists in the final instance either;
* the survivors of a block may split into finer Gaifman blocks of the
  final instance, which is what ``fold_step`` would search one at a
  time.  A fold of one such piece extends by the identity on the other
  pieces to a match of the whole survivors' pattern that misses an
  atom, and the last kernel round ruled that out.

Hence no block of the result can be folded, which is exactly
:func:`~repro.homomorphism.core_computation.is_core`; the tests check
that certificate instead of every solve paying for it.

For canonical solutions of s-t exchanges the blocks are tiny (bounded
by the number of existential variables per tgd), which is what makes
core computation polynomial there [FKP, "getting to the core"]; target
tgds and egds can grow blocks (the complication Gottlob-Nash address),
and the cost is then exponential only in the largest block.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.terms import Null, Value, Variable
from ..logic.matching import attributed, match_plan
from ..logic.plans import plan_for
from ..obs import counter, span
from ..obs.provenance import active_ledger

# Prefetched handles (counters survive ``repro.obs.reset``): the kernel
# and ``fold_step`` count once per retract attempt.
_RETRACTS = counter("core.retract_attempts")
_FOLDS = counter("core.folds")
_PATTERN_REUSE = counter("core.block_pattern_reuse")


def null_blocks(instance: Instance) -> List[FrozenSet[Null]]:
    """Connected components of nulls under atom co-occurrence.

    Deterministic order (by smallest null identifier per block).  Every
    null occurs in an atom its block owns, so a block's nulls are those
    of its :func:`block_index` entry.
    """
    return [
        frozenset(
            value for atom in owned for value in atom.args
            if isinstance(value, Null)
        )
        for owned in block_index(instance)
    ]


def block_index(atoms: Iterable[Atom]) -> List[List[Atom]]:
    """The sorted owned atoms of every block, by smallest null.

    ``atoms`` is an instance or any iterable of distinct ground atoms.
    One pass over them: a union-find joins the nulls of each atom, and
    the atom is filed under its first null, which lies in the same block
    as all of its others.  A ground instance has no blocks and is not
    walked.
    """
    if isinstance(atoms, Instance) and atoms.is_ground:
        return []
    parent: Dict[Null, Null] = {}
    filed: Dict[Null, List[Atom]] = {}

    def find(item: Null) -> Null:
        root = item
        while parent[root] is not root:
            root = parent[root]
        while parent[item] is not root:
            parent[item], item = root, parent[item]
        return root

    for atom in atoms:
        first = None
        for value in atom.args:
            if value.__class__ is not Null:
                continue
            if value not in parent:
                parent[value] = value
            if first is None:
                first = value
                filed.setdefault(value, []).append(atom)
                continue
            # Union by smallest null: every root is its block's minimum.
            left, right = find(first), find(value)
            if left is not right:
                if right < left:
                    left, right = right, left
                parent[right] = left

    owned_by: Dict[Null, List[Atom]] = {}
    for null, owned in filed.items():
        owned_by.setdefault(find(null), []).extend(owned)
    blocks = []
    for root in sorted(owned_by):
        owned = owned_by[root]
        owned.sort(key=Atom.sort_key)
        blocks.append(owned)
    return blocks


def block_atoms(instance: Instance, block: FrozenSet[Null]) -> List[Atom]:
    """The atoms owned by a block: those mentioning one of its nulls."""
    return sorted(
        atom for atom in instance if any(n in block for n in atom.nulls)
    )


def block_statistics(instance: Instance) -> Dict[str, float]:
    """Block census for diagnostics and benchmarks."""
    blocks = null_blocks(instance)
    if not blocks:
        return {"blocks": 0, "largest": 0, "average": 0.0}
    sizes = [len(block) for block in blocks]
    return {
        "blocks": len(blocks),
        "largest": max(sizes),
        "average": sum(sizes) / len(sizes),
    }


#: Bounded memo of compiled block patterns keyed by the exact owned
#: atom tuple -- the pattern is a pure function of it.  Core computation
#: revisits unchanged blocks constantly (every ``fold_step`` round of
#: global folding, every repeated minimization of an already-minimal
#: block), and this skips rebuilding the variable-lifted atoms each
#: round.  Hits land in ``core.block_pattern_reuse``.
_PATTERN_CACHE: Dict[Tuple[Atom, ...], Tuple] = {}
_PATTERN_CACHE_LIMIT = 1024


def block_pattern(
    owned: List[Atom],
) -> Tuple[Tuple[Atom, ...], Dict[Variable, Null]]:
    """The canonical pattern of a block's atoms, nulls-as-variables.

    The block's nulls are exactly the nulls of its owned atoms; every
    other value is frozen (treated as rigid), so the extension of any
    match by the identity is an endomorphism of the whole instance.
    Computed once per owned set and reused for every dropped-atom
    attempt -- the attempts of a kernel round then run one held plan --
    and memoized across invocations for unchanged blocks.
    """
    key = tuple(owned)
    cached = _PATTERN_CACHE.get(key)
    if cached is not None:
        _PATTERN_REUSE.inc()
        return cached
    to_variable: Dict[Value, Variable] = {}
    for atom in owned:
        for value in atom.args:
            if isinstance(value, Null) and value not in to_variable:
                to_variable[value] = Variable(f"_b{value.ident}")
    pattern = tuple(
        Atom(
            atom.relation,
            tuple(to_variable.get(value, value) for value in atom.args),
        )
        for atom in owned
    )
    back = {variable: null for null, variable in to_variable.items()}
    if len(_PATTERN_CACHE) >= _PATTERN_CACHE_LIMIT:
        _PATTERN_CACHE.pop(next(iter(_PATTERN_CACHE)))
    _PATTERN_CACHE[key] = (pattern, back)
    return pattern, back


def minimize_block(
    working: Instance, owned: List[Atom], *, via: str = "blockwise"
) -> Tuple[bool, bool]:
    """Fold one block of ``working`` in place as far as it goes.

    ``owned`` is the block's sorted owned atoms (an entry of
    :func:`block_index`).  Each round tries the owned atoms in turn:
    it searches a block-local match of the block pattern into
    ``working`` less that atom, skipped by the matcher rather than
    discarded (``without=``), and applies the first match found: the
    owned atoms outside the image are deleted -- the images are already
    present -- and the next round works on the survivors.  Those
    deletions are the only writes to ``working``.  Every attempt of a
    round matches the same pattern, so a round resolves its compiled
    plan once and each attempt runs it directly (``match_plan``); the
    attempts' matcher work counts under ``hom``.  Retractions are
    recorded in the active provenance ledger under ``via``.

    Returns ``(folded, crossed)``: ``folded`` is True when some round
    folded; ``crossed`` is True when some fold mapped a null onto a null
    of *another* block.  The result is exact either way, but the
    incremental core's per-block memo (:mod:`repro.incremental.core`)
    assumes folds stay inside their block.
    """
    pattern, back = block_pattern(owned)
    variables = tuple(back)
    block = frozenset(back.values())
    folded = crossed = False
    survivors = owned
    while True:
        plan = plan_for(pattern, (), ())
        with attributed("hom"):
            for atom in survivors:
                _RETRACTS.inc()
                found = next(
                    match_plan(plan, working, variables, without=atom), None
                )
                if found is not None:
                    break
            else:
                break
        _FOLDS.inc()
        folded = True
        mapping = dict(zip(back.values(), found))
        images = {item.rename_values(mapping) for item in survivors}
        dropped = [item for item in survivors if item not in images]
        for item in dropped:
            working.discard(item)
        ledger = active_ledger()
        if ledger is not None:
            ledger.record_retraction(via, dropped, mapping)
        crossed = crossed or any(
            isinstance(value, Null) and value not in block
            for value in mapping.values()
        )
        survivors = sorted(images.intersection(survivors), key=Atom.sort_key)
        if not survivors:
            break
        pattern, back = block_pattern(survivors)
        variables = tuple(back)
    return folded, crossed


def blockwise_core(instance: Instance) -> Instance:
    """The core of ``instance``, computed block-by-block on one copy.

    One block index, then every block minimized in place on the copy.
    The result needs no verification fold: see the module docstring for
    why one pass is exact.
    """
    with span("core.blockwise"):
        working = instance.copy()
        for owned in block_index(working):
            minimize_block(working, owned)
        return working

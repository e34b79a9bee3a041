"""Core computation by endomorphism folding.

The *core* of an instance I (Hell-Nešetřil, reference [9] of the paper) is
a subinstance J ⊆ I with a homomorphism I → J such that no proper
subinstance of J admits a homomorphism from J.  Every finite instance has
a core, unique up to renaming of nulls.

Algorithm
---------
Repeatedly look for an atom A that can be *folded away*: a homomorphism
from I into I ∖ {A}.  If one exists, replace I by its image (a proper
subinstance missing A) and continue; when no atom can be folded away, I is
its own core:

* if I were not a core there would be a proper endomorphism h with
  h(I) ⊊ I, so some atom A ∈ I ∖ h(I) could be folded away;
* constants are fixed by homomorphisms, so atoms containing only
  constants can never be dropped -- the search skips them.

Each search is *block-local*: only the pattern of A's Gaifman null-block
(see :mod:`repro.homomorphism.blocks`) is matched against I ∖ {A}, with
every value outside the block frozen.  This is exact.  If h maps I into
I ∖ {A}, then h on A's block and the identity elsewhere does too, since
no atom mixes nulls of two blocks; conversely a block match extends to
a full homomorphism by the identity.  A fold step therefore costs the
sum over blocks of a search exponential only in the block's size, not
in the whole instance, and the matcher's recursion depth is the block
size.  This is the block decomposition of the FKP blocks algorithm;
unlike the polynomial Gottlob-Nash algorithm the paper cites [8] it is
still exponential in the largest block (homomorphism checks are NP-hard
in general), but chase results have small blocks (see DESIGN.md,
"Deviations").
"""

from __future__ import annotations

from typing import Optional

from ..core.instance import Instance
from ..obs import span
from ..obs.provenance import active_ledger
from .blocks import _FOLDS, _RETRACTS, block_index, block_pattern
from .search import has_homomorphism, homomorphism_via_pattern


def fold_step(instance: Instance) -> Optional[Instance]:
    """One folding step: return a proper retract of ``instance``, or None.

    Tries to drop each null-containing atom, block by block, searching
    only its block's pattern (see the module docstring); on success
    returns the image of the block-local homomorphism, which may drop
    several atoms of the block at once.

    One block index is built per call, each block pattern is reused for
    all of its atoms (the attempts then share one compiled plan), and a
    single working copy is mutated -- drop the atom, search, put it
    back -- so a round over n atoms costs one copy, not n.

    The block kernel (:func:`~repro.homomorphism.blocks.minimize_block`)
    skips the atom inside the matcher instead of writing.  This function
    keeps the write path on purpose: it is the independent certificate
    (``is_core``, ``core``, ``retracts_to``) that the tests and the
    benchmark's oracle check hold the kernel's cores against, so it
    shares no skipping code with it.
    """
    blocks = block_index(instance)
    if not blocks:
        return None
    working = instance.copy()
    for owned in blocks:
        pattern, back = block_pattern(owned)
        for item in owned:
            working.discard(item)
            _RETRACTS.inc()
            mapping = homomorphism_via_pattern(pattern, back, working)
            working.add(item)
            if mapping is not None:
                _FOLDS.inc()
                image = instance.rename_values(mapping)
                ledger = active_ledger()
                if ledger is not None:
                    ledger.record_retraction(
                        "folding", set(instance) - set(image), mapping
                    )
                return image
    return None


def core(instance: Instance) -> Instance:
    """The core of ``instance`` (up to renaming of nulls, deterministic).

    >>> from repro.logic import parse_instance
    >>> inst = parse_instance("E('a', #1), E('a', 'b')")
    >>> core(inst)
    Instance({E(a, b)})
    """
    with span("core.folding"):
        current = instance.copy()
        while True:
            folded = fold_step(current)
            if folded is None:
                return current
            current = folded


def is_core(instance: Instance) -> bool:
    """True iff the instance equals its own core.

    Checked directly: no null-containing atom can be folded away.
    """
    return fold_step(instance) is None


def retracts_to(instance: Instance, candidate: Instance) -> bool:
    """True iff ``candidate`` is the (unique) core of ``instance``.

    Requires candidate ⊆ instance, a homomorphism instance → candidate,
    and candidate being a core itself.
    """
    return (
        candidate.issubset(instance)
        and has_homomorphism(instance, candidate)
        and is_core(candidate)
    )

"""Incremental re-solving: delta maintenance for small source edits.

``repro.incremental`` maintains a solved exchange under source edits
instead of re-chasing from scratch: the provenance ledger doubles as a
fact-level dependency DAG (deletion cones, DRed-style re-derivation),
the semi-naive engine continues from the surviving chase state seeded
with just the edit, and the blockwise core pass keeps its block index
alive between edits and revisits only the Gaifman blocks the edit
reaches.  See
``docs/performance.md`` ("Incremental maintenance") for the
architecture and the exactness argument.
"""

from .core import BlockMemo, incremental_core
from .delta import SourceDelta
from .session import DeltaSession

__all__ = [
    "BlockMemo",
    "DeltaSession",
    "SourceDelta",
    "incremental_core",
]

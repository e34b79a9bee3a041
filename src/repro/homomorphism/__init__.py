"""Homomorphisms, endomorphisms, retracts, and cores."""

from .blocks import block_atoms, block_statistics, blockwise_core, null_blocks
from .core_computation import core, fold_step, is_core, retracts_to
from .search import (
    Homomorphism,
    endomorphisms,
    find_homomorphism,
    has_homomorphism,
    hom_equivalent,
    homomorphisms,
    is_homomorphism,
    is_retract_of,
)

__all__ = [
    "Homomorphism",
    "block_atoms",
    "block_statistics",
    "blockwise_core",
    "core",
    "null_blocks",
    "endomorphisms",
    "find_homomorphism",
    "fold_step",
    "has_homomorphism",
    "hom_equivalent",
    "homomorphisms",
    "is_core",
    "is_homomorphism",
    "is_retract_of",
    "retracts_to",
]

"""Relational substrate: values, atoms, schemas, instances.

This package implements the basic objects of Section 2 of the paper:
constants, labeled nulls, relation symbols, schemas, ground atoms, and
instances with incomplete data.
"""

from .atoms import Atom, atom
from .errors import (
    ArityError,
    ChaseDivergence,
    ChaseFailure,
    DependencyError,
    NotASolutionError,
    ParseError,
    ReproError,
    SchemaError,
    UnsupportedQueryError,
)
from .instance import Instance, isomorphic
from .schema import RelationSymbol, Schema
from .terms import (
    Const,
    Null,
    NullFactory,
    Term,
    Value,
    Variable,
    as_value,
    const,
    constants,
    null,
    var,
    variables,
)

__all__ = [
    "Atom",
    "ArityError",
    "ChaseDivergence",
    "ChaseFailure",
    "Const",
    "DependencyError",
    "Instance",
    "NotASolutionError",
    "Null",
    "NullFactory",
    "ParseError",
    "RelationSymbol",
    "ReproError",
    "Schema",
    "SchemaError",
    "Term",
    "UnsupportedQueryError",
    "Value",
    "Variable",
    "as_value",
    "atom",
    "const",
    "constants",
    "isomorphic",
    "null",
    "var",
    "variables",
]

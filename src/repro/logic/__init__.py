"""Logic substrate: formulas, evaluation, queries, matching, parsing."""

from .datalog import DatalogProgram, Rule, parse_program, parse_rule
from .evaluation import evaluation_domain, holds, satisfying_assignments
from .formulas import (
    And,
    Equality,
    Exists,
    Falsity,
    Forall,
    Formula,
    Not,
    Or,
    RelationalAtom,
    Truth,
    atoms_of,
    conjunction,
    disjunction,
    is_conjunction_of_atoms,
)
from .matching import exists_match, match
from .parser import (
    parse_atom,
    parse_formula,
    parse_instance,
    parse_query,
    tokenize,
)
from .queries import (
    ConjunctiveQuery,
    FirstOrderQuery,
    Query,
    UnionOfConjunctiveQueries,
    canonical_query,
)

__all__ = [
    "And",
    "DatalogProgram",
    "Rule",
    "parse_program",
    "parse_rule",
    "ConjunctiveQuery",
    "Equality",
    "Exists",
    "Falsity",
    "FirstOrderQuery",
    "Forall",
    "Formula",
    "Not",
    "Or",
    "Query",
    "RelationalAtom",
    "Truth",
    "UnionOfConjunctiveQueries",
    "atoms_of",
    "canonical_query",
    "conjunction",
    "disjunction",
    "evaluation_domain",
    "exists_match",
    "holds",
    "is_conjunction_of_atoms",
    "match",
    "parse_atom",
    "parse_formula",
    "parse_instance",
    "parse_query",
    "satisfying_assignments",
    "tokenize",
]

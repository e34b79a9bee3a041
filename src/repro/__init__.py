"""repro -- a reproduction of *CWA-Solutions for Data Exchange Settings
with Target Dependencies* (Hernich & Schweikardt, PODS 2007).

The library implements the paper's entire technical development:

* the relational substrate (constants, labeled nulls, instances) --
  :mod:`repro.core`;
* first-order logic, conjunctive queries, and a text DSL --
  :mod:`repro.logic`;
* tgds, egds, weak and rich acyclicity -- :mod:`repro.dependencies`;
* homomorphisms and cores -- :mod:`repro.homomorphism`;
* the standard chase, the oblivious chase, and the paper's **α-chase**
  -- :mod:`repro.chase`;
* **CWA-presolutions and CWA-solutions** (recognition, construction,
  enumeration, CanSol) -- :mod:`repro.cwa`;
* data exchange settings and the solve driver -- :mod:`repro.exchange`;
* the four CWA query-answering semantics -- :mod:`repro.answering`;
* the undecidability and hardness reductions (D_halt, D_emb, 3-SAT,
  path systems) -- :mod:`repro.reductions`;
* workload generators and the paper's named examples --
  :mod:`repro.generators`.

Quickstart
----------
>>> from repro import DataExchangeSetting, Schema, parse_instance, solve
>>> setting = DataExchangeSetting.from_strings(
...     Schema.of(M=2, N=2), Schema.of(E=2, F=2, G=2),
...     ["M(x1,x2) -> E(x1,x2)",
...      "N(x,y) -> exists z1, z2 . E(x,z1) & F(x,z2)"],
...     ["F(y,x) -> exists z . G(x,z)",
...      "F(x,y) & F(x,z) -> y = z"])
>>> source = parse_instance("M('a','b'), N('a','b'), N('a','c')")
>>> result = solve(setting, source)
>>> result.cwa_solution_exists
True
"""

from .core import (
    Atom,
    Const,
    Instance,
    Null,
    NullFactory,
    RelationSymbol,
    ReproError,
    Schema,
    Variable,
    atom,
    const,
    isomorphic,
    null,
    var,
)
from .logic import (
    ConjunctiveQuery,
    DatalogProgram,
    FirstOrderQuery,
    Query,
    UnionOfConjunctiveQueries,
    parse_atom,
    parse_formula,
    parse_instance,
    parse_program,
    parse_query,
)
from .dependencies import (
    Egd,
    Tgd,
    is_richly_acyclic,
    is_weakly_acyclic,
    parse_dependency,
)
from .chase import (
    AlphaChaseSession,
    ChaseStatus,
    ExplicitAlpha,
    FreshAlpha,
    alpha_chase,
    narrate,
    oblivious_chase,
    standard_chase,
)
from .chase.seminaive import seminaive_chase
from .homomorphism import blockwise_core, find_homomorphism, has_homomorphism
from .cwa import (
    cansol,
    core_solution,
    cwa_solution_exists,
    enumerate_cwa_presolutions,
    enumerate_cwa_solutions,
    find_alpha,
    is_cwa_presolution,
    is_cwa_solution,
    minimal_cwa_solution,
)
from .exchange import (
    DataExchangeSetting,
    copying_setting,
    existence_of_cwa_solutions,
    solve,
)
from .incremental import DeltaSession, SourceDelta
from .answering import (
    all_four_semantics,
    datalog_certain_answers,
    certain_answers,
    certain_on,
    maybe_answers,
    maybe_on,
    persistent_maybe_answers,
    potential_certain_answers,
    u_certain_answers,
    ucq_certain_answers,
)

__version__ = "1.0.0"

__all__ = [
    "AlphaChaseSession",
    "Atom",
    "ChaseStatus",
    "ConjunctiveQuery",
    "Const",
    "DatalogProgram",
    "DataExchangeSetting",
    "DeltaSession",
    "Egd",
    "ExplicitAlpha",
    "FirstOrderQuery",
    "FreshAlpha",
    "Instance",
    "Null",
    "NullFactory",
    "Query",
    "RelationSymbol",
    "ReproError",
    "Schema",
    "SourceDelta",
    "Tgd",
    "UnionOfConjunctiveQueries",
    "Variable",
    "all_four_semantics",
    "alpha_chase",
    "atom",
    "blockwise_core",
    "datalog_certain_answers",
    "narrate",
    "parse_program",
    "seminaive_chase",
    "cansol",
    "certain_answers",
    "certain_on",
    "const",
    "copying_setting",
    "core_solution",
    "cwa_solution_exists",
    "enumerate_cwa_presolutions",
    "enumerate_cwa_solutions",
    "existence_of_cwa_solutions",
    "find_alpha",
    "find_homomorphism",
    "has_homomorphism",
    "is_cwa_presolution",
    "is_cwa_solution",
    "is_richly_acyclic",
    "is_weakly_acyclic",
    "isomorphic",
    "maybe_answers",
    "maybe_on",
    "minimal_cwa_solution",
    "null",
    "oblivious_chase",
    "parse_atom",
    "parse_dependency",
    "parse_formula",
    "parse_instance",
    "parse_query",
    "persistent_maybe_answers",
    "potential_certain_answers",
    "solve",
    "standard_chase",
    "u_certain_answers",
    "ucq_certain_answers",
    "var",
]

"""3-SAT and the co-NP-hardness of certain answers (Theorem 7.5).

Theorem 7.5 states that for some richly acyclic setting and some
conjunctive query with **one** inequality, deciding the certain answers
is co-NP-complete; the proof (a reduction from the complement of 3-SAT)
is in the unavailable full version.  The paper notes (discussion after
Theorem 7.5) that a slightly weaker version -- a conjunctive query with
**two** inequalities, no target dependencies -- already follows from
Mądry [13], and that his proof carries over to certain□ and certain◇.

We implement that two-inequality reduction, verified end-to-end against
a brute-force SAT solver:

    φ is unsatisfiable  ⟺  certain□(Q, S_φ) = certain◇(Q, S_φ) = true.

Construction
------------
Source: ``Cls(c, v₁, s₁, v₂, s₂, v₃, s₃)`` (clause c with literals
(vᵢ, sᵢ), signs '+'/'-'), ``VarS(v)``, ``Init(0)``.

S-t-tgds (no target dependencies; trivially richly acyclic):

* copy clauses to ``Cl``;
* ``VarS(v) → ∃t V(v, t)`` -- each variable gets an unknown value;
* ``Init(d) → ∃z,o (R0(z) ∧ R1(o) ∧ Fal('+', z) ∧ Fal('-', o))`` -- two
  reference nulls z ("false") and o ("true"), with ``Fal`` mapping each
  literal sign to the value that falsifies it.

A valuation of the core chooses constants for z, o and every t_v.  Read
it as an assignment: v is *true* if t_v = o, *false* if t_v = z, and
*garbage* otherwise.  The query (a UCQ, one disjunct with two
inequalities, one pure) is true on a world iff the world is garbage or
falsifies some clause:

* ``Q_garbage() :- V(v,t), R0(z), R1(o), t ≠ z, t ≠ o``
* ``Q_false()   :- Cl(c,v₁,s₁,v₂,s₂,v₃,s₃),
  V(v₁,t₁), Fal(s₁,t₁), V(v₂,t₂), Fal(s₂,t₂), V(v₃,t₃), Fal(s₃,t₃)``

Correctness: a world with z = o makes every variable either garbage
(→ Q_garbage) or equal to both references, in which case *all* its
literals are false and every clause is (→ Q_false).  A world with z ≠ o
and no garbage is exactly a Boolean assignment, and Q_false holds iff
the assignment falsifies a clause.  Hence every world satisfies Q iff no
satisfying assignment exists.

The deviation from Theorem 7.5's sharper statement (one inequality,
richly acyclic target egds) is recorded in DESIGN.md and EXPERIMENTS.md.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.schema import Schema
from ..core.terms import Const
from ..exchange.setting import DataExchangeSetting
from ..logic.parser import parse_query
from ..logic.queries import Query

POSITIVE = "+"
NEGATIVE = "-"

Literal = Tuple[str, str]  # (variable name, sign)
Clause = Tuple[Literal, Literal, Literal]


class ThreeSat:
    """A 3-CNF formula: a list of three-literal clauses."""

    def __init__(self, clauses: Sequence[Clause]):
        self.clauses: Tuple[Clause, ...] = tuple(clauses)
        variables: List[str] = []
        for clause in self.clauses:
            for variable, sign in clause:
                if sign not in (POSITIVE, NEGATIVE):
                    raise ValueError(f"bad sign {sign!r}")
                if variable not in variables:
                    variables.append(variable)
        self.variables: Tuple[str, ...] = tuple(variables)

    def evaluate(self, assignment: Dict[str, bool]) -> bool:
        """Is every clause satisfied?"""
        for clause in self.clauses:
            satisfied = False
            for variable, sign in clause:
                value = assignment[variable]
                if (sign == POSITIVE and value) or (
                    sign == NEGATIVE and not value
                ):
                    satisfied = True
                    break
            if not satisfied:
                return False
        return True

    def satisfying_assignment(self) -> Optional[Dict[str, bool]]:
        """Brute-force search; None iff unsatisfiable."""
        for bits in product((False, True), repeat=len(self.variables)):
            assignment = dict(zip(self.variables, bits))
            if self.evaluate(assignment):
                return assignment
        return None

    @property
    def satisfiable(self) -> bool:
        return self.satisfying_assignment() is not None

    def __repr__(self) -> str:
        def lit(literal: Literal) -> str:
            variable, sign = literal
            return variable if sign == POSITIVE else f"¬{variable}"

        return " ∧ ".join(
            "(" + " ∨ ".join(lit(l) for l in clause) + ")"
            for clause in self.clauses
        )


def random_formula(
    variables: int, clauses: int, seed: int = 0
) -> ThreeSat:
    """A random 3-CNF formula (variables named x0, x1, ...)."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(variables)]
    built: List[Clause] = []
    for _ in range(clauses):
        chosen = rng.sample(names, 3) if variables >= 3 else [
            rng.choice(names) for _ in range(3)
        ]
        built.append(
            tuple(
                (name, rng.choice((POSITIVE, NEGATIVE))) for name in chosen
            )
        )
    return ThreeSat(built)


def unsatisfiable_formula(variables: int = 2) -> ThreeSat:
    """All 2^3 sign patterns over three fixed variables: unsatisfiable."""
    names = [f"x{i}" for i in range(max(3, variables))]
    a, b, c = names[0], names[1], names[2]
    clauses: List[Clause] = []
    for signs in product((POSITIVE, NEGATIVE), repeat=3):
        clauses.append(((a, signs[0]), (b, signs[1]), (c, signs[2])))
    return ThreeSat(clauses)


# ----------------------------------------------------------------------
# The reduction
# ----------------------------------------------------------------------


def threesat_setting() -> DataExchangeSetting:
    """The (fixed) data exchange setting of the reduction."""
    sigma = Schema.of(Cls=7, VarS=1, Init=1)
    tau = Schema.of(Cl=7, V=2, R0=1, R1=1, Fal=2)
    st = [
        "Cls(c, v1, s1, v2, s2, v3, s3) -> Cl(c, v1, s1, v2, s2, v3, s3)",
        "VarS(v) -> exists t . V(v, t)",
        "Init(d) -> exists z, o . "
        f"R0(z) & R1(o) & Fal('{POSITIVE}', z) & Fal('{NEGATIVE}', o)",
    ]
    return DataExchangeSetting.from_strings(sigma, tau, st, [])


def encode_formula(formula: ThreeSat) -> Instance:
    """``S_φ``: the clauses, the variables, and the init token."""
    sigma = Schema.of(Cls=7, VarS=1, Init=1)
    source = Instance()
    source.add(Atom(sigma["Init"], (Const("0"),)))
    for name in formula.variables:
        source.add(Atom(sigma["VarS"], (Const(name),)))
    for index, clause in enumerate(formula.clauses):
        args = [Const(f"c{index}")]
        for variable, sign in clause:
            args.append(Const(variable))
            args.append(Const(sign))
        source.add(Atom(sigma["Cls"], tuple(args)))
    return source


def unsat_query() -> Query:
    """The Boolean UCQ of the reduction (see module docstring)."""
    return parse_query(
        "Q() :- V(v, t), R0(z), R1(o), t != z, t != o ; "
        "Q() :- Cl(c, v1, s1, v2, s2, v3, s3), "
        "V(v1, t1), Fal(s1, t1), "
        "V(v2, t2), Fal(s2, t2), "
        "V(v3, t3), Fal(s3, t3)"
    )


def sat_witness_query() -> Query:
    """The FO negation of :func:`unsat_query`, for the NP side.

    Theorem 7.5 also states NP-completeness of the *maybe* semantics.
    For Boolean queries, ``maybe◇(¬Q, S) = ¬certain□(Q, S)`` pointwise
    on each solution's worlds, so the same reduction decides SAT through
    the maybe answers of the negated query: φ is satisfiable iff some
    world of some CWA-solution satisfies ¬Q (i.e. encodes a satisfying
    assignment).
    """
    from ..logic.queries import FirstOrderQuery
    from ..logic.formulas import Not

    positive = unsat_query()
    return FirstOrderQuery((), Not(positive.to_formula()))


def decide_sat_via_maybe_answers(formula: ThreeSat) -> bool:
    """φ satisfiable ⟺ the maybe answer of ¬Q on S_φ is true.

    Exercises the NP side of Proposition 7.4 / Theorem 7.5.  For a
    Boolean query on a single solution, ``◇(¬Q)(T) = ¬□Q(T)``
    (some world falsifies Q iff not all worlds satisfy it), so the
    maybe answer is computed by complementing the certain sweep --
    the general brute-force FO path through :func:`sat_witness_query`
    gives the same verdict but enumerates assignments for every
    quantified variable of ¬Q and is only feasible on tiny inputs
    (tests cross-check the two on such inputs).

    maybe◇ ranges over *all* CWA-solutions; the setting has no target
    dependencies, so Proposition 5.4 applies and
    :func:`~repro.answering.semantics.solutions_for` answers it on
    CanSol alone, whose worlds include every CWA-solution's (Theorem
    7.1).
    """
    from ..answering.semantics import solutions_for
    from ..answering.valuations import certain_on

    setting = threesat_setting()
    source = encode_formula(formula)
    return any(
        not certain_on(
            unsat_query(), solution, setting.target_dependencies, anchors=()
        )
        for solution in solutions_for(setting, source, "maybe")
    )


def decide_unsat_via_certain_answers(
    formula: ThreeSat,
    *,
    semantics: str = "certain",
    fast_anchors: bool = True,
) -> bool:
    """φ unsatisfiable ⟺ the certain answer of Q on S_φ is true.

    ``semantics`` is "certain" (certain□) or "potential_certain"
    (certain◇); :func:`~repro.answering.semantics.solutions_for` answers
    the first on the core (Theorem 7.1) and the second on CanSol (the
    setting has no target dependencies, so Proposition 5.4 applies).

    With ``fast_anchors=True`` the valuation enumeration uses an empty
    anchor set, which is sound for this reduction: every term the query
    compares (by join or inequality) binds exclusively to *null-fed*
    positions (V.2, R0.1, R1.1, Fal.2 hold only nulls in any
    CWA-solution; Fal.1 and the Cl columns join constants with
    constants, independent of the valuation).  Hence only the equality
    *pattern* among nulls matters and set partitions cover all cases:
    Bell(#vars + 2) worlds instead of (pool size)^(#vars + 2).  Tests
    cross-check both modes.
    """
    from ..answering.semantics import solutions_for
    from ..answering.valuations import certain_on

    if semantics not in ("certain", "potential_certain"):
        raise ValueError(f"unknown semantics {semantics!r}")
    setting = threesat_setting()
    source = encode_formula(formula)
    query = unsat_query()
    anchors = () if fast_anchors else None
    return any(
        certain_on(
            query, solution, setting.target_dependencies, anchors=anchors
        )
        for solution in solutions_for(setting, source, semantics)
    )

"""Query classes: conjunctive queries, unions, inequalities, full FO.

Section 7 of the paper classifies query answering complexity by query
class:

* unions of conjunctive queries (UCQs)            -> PTIME (Theorem 7.6),
* UCQs with at most one inequality per disjunct   -> co-NP-hard already for
  one CQ with one inequality (Theorem 7.5),
* arbitrary first-order queries                    -> co-NP / NP membership
  for richly acyclic settings (Proposition 7.4).

The classes here mirror that hierarchy.  :class:`ConjunctiveQuery`
evaluates through the indexed matcher; :class:`FirstOrderQuery` wraps an
arbitrary formula and evaluates by brute force.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Set, Tuple

from ..core.atoms import Atom
from ..core.errors import UnsupportedQueryError
from ..core.instance import Instance
from ..core.terms import Null, Value, Variable
from .evaluation import satisfying_assignments
from .formulas import (
    Equality,
    Exists,
    Formula,
    Not,
    RelationalAtom,
    conjunction,
    disjunction,
)
from .matching import Inequality, match

AnswerTuple = Tuple[Value, ...]
AnswerSet = FrozenSet[AnswerTuple]


class Query:
    """Base class: a query has an arity and can be evaluated on an instance."""

    arity: int

    def evaluate(self, instance: Instance) -> AnswerSet:
        """Naive evaluation ``Q(I)``: nulls are treated as plain values."""
        raise NotImplementedError

    def certain_part(self, instance: Instance) -> AnswerSet:
        """``Q(I)↓``: the null-free answers of the naive evaluation.

        For UCQs and any CWA-solution T this equals all four CWA answer
        semantics (Lemma 7.7).
        """
        return frozenset(
            answer
            for answer in self.evaluate(instance)
            if Null not in map(type, answer)
        )

    @property
    def is_boolean(self) -> bool:
        return self.arity == 0

    def holds_in(self, instance: Instance) -> bool:
        """For Boolean queries: True iff the empty tuple is an answer."""
        if not self.is_boolean:
            raise UnsupportedQueryError("holds_in is for Boolean queries only")
        return bool(self.evaluate(instance))


class ConjunctiveQuery(Query):
    """A conjunctive query, optionally with inequalities.

    ``Q(x̄) :- A1, ..., Am, s1 ≠ t1, ..., sk ≠ tk`` where every ``Ai`` is a
    relational atom.  With ``k = 0`` this is a plain CQ; with ``k = 1`` it
    is the class of Theorem 7.5.

    >>> # built more conveniently via repro.logic.parser.parse_query
    """

    def __init__(
        self,
        head: Sequence[Variable],
        body: Sequence[Atom],
        inequalities: Sequence[Inequality] = (),
    ):
        self.head: Tuple[Variable, ...] = tuple(head)
        self.body: Tuple[Atom, ...] = tuple(body)
        self.inequalities: Tuple[Inequality, ...] = tuple(inequalities)
        self.arity = len(self.head)
        body_variables: Set[Variable] = set()
        for item in self.body:
            body_variables |= item.variables
        for variable in self.head:
            if variable not in body_variables:
                raise UnsupportedQueryError(
                    f"head variable {variable} does not occur in the body "
                    "(unsafe query)"
                )
        for left, right in self.inequalities:
            for term in (left, right):
                if isinstance(term, Variable) and term not in body_variables:
                    raise UnsupportedQueryError(
                        f"inequality variable {term} does not occur in the body"
                    )

    @property
    def has_inequalities(self) -> bool:
        return bool(self.inequalities)

    def evaluate(self, instance: Instance) -> AnswerSet:
        return frozenset(
            match(
                self.body, instance, self.head, inequalities=self.inequalities
            )
        )

    def to_formula(self) -> Formula:
        """The FO formula ∃(nondistinguished vars). body ∧ inequalities."""
        parts: List[Formula] = [RelationalAtom(item) for item in self.body]
        parts.extend(
            Not(Equality(left, right)) for left, right in self.inequalities
        )
        body = conjunction(parts)
        bound = sorted(
            (body.free_variables() - frozenset(self.head)),
            key=lambda v: v.name,
        )
        if bound:
            return Exists(tuple(bound), body)
        return body

    def variables(self) -> FrozenSet[Variable]:
        out: Set[Variable] = set(self.head)
        for item in self.body:
            out |= item.variables
        for left, right in self.inequalities:
            for term in (left, right):
                if isinstance(term, Variable):
                    out.add(term)
        return frozenset(out)

    def __repr__(self) -> str:
        head = ", ".join(v.name for v in self.head)
        parts = [repr(item) for item in self.body]
        parts.extend(f"{left} ≠ {right}" for left, right in self.inequalities)
        return f"Q({head}) :- {', '.join(parts)}"


class UnionOfConjunctiveQueries(Query):
    """A finite union of conjunctive queries of the same arity.

    The paper allows one inequality per disjunct in the extended class; the
    :attr:`max_inequalities_per_disjunct` property reports where this query
    sits in Table 1's columns.
    """

    def __init__(self, disjuncts: Sequence[ConjunctiveQuery]):
        disjuncts = tuple(disjuncts)
        if not disjuncts:
            raise UnsupportedQueryError("a UCQ needs at least one disjunct")
        arities = {d.arity for d in disjuncts}
        if len(arities) != 1:
            raise UnsupportedQueryError(
                f"all disjuncts must share one arity, got {sorted(arities)}"
            )
        self.disjuncts: Tuple[ConjunctiveQuery, ...] = disjuncts
        self.arity = disjuncts[0].arity

    @property
    def max_inequalities_per_disjunct(self) -> int:
        return max(len(d.inequalities) for d in self.disjuncts)

    @property
    def is_pure_ucq(self) -> bool:
        """True if no disjunct has inequalities (Table 1, first column)."""
        return self.max_inequalities_per_disjunct == 0

    def evaluate(self, instance: Instance) -> AnswerSet:
        answers: Set[AnswerTuple] = set()
        for disjunct in self.disjuncts:
            answers |= disjunct.evaluate(instance)
        return frozenset(answers)

    def to_formula(self) -> Formula:
        """Disjunction of the disjunct formulas, head variables aligned.

        All disjuncts are rewritten to use the first disjunct's head
        variable names so the disjunction is well-formed.
        """
        canonical_head = self.disjuncts[0].head
        rewritten: List[Formula] = []
        for disjunct in self.disjuncts:
            renaming = dict(zip(disjunct.head, canonical_head))
            rewritten.append(disjunct.to_formula().substitute(renaming))
        return disjunction(rewritten)

    def __repr__(self) -> str:
        return " ∪ ".join(repr(d) for d in self.disjuncts)


class FirstOrderQuery(Query):
    """An arbitrary FO query ``Q(x̄) = φ(x̄)``, evaluated by brute force.

    Used for Section 3's anomaly query and for the FO column of Table 1.
    """

    def __init__(self, head: Sequence[Variable], formula: Formula):
        self.head: Tuple[Variable, ...] = tuple(head)
        self.formula = formula
        self.arity = len(self.head)
        free = formula.free_variables()
        if free != frozenset(self.head):
            raise UnsupportedQueryError(
                f"free variables {sorted(v.name for v in free)} must equal "
                f"the head {[v.name for v in self.head]}"
            )

    def evaluate(self, instance: Instance) -> AnswerSet:
        return frozenset(
            satisfying_assignments(self.formula, instance, self.head)
        )

    def to_formula(self) -> Formula:
        return self.formula

    def __repr__(self) -> str:
        head = ", ".join(v.name for v in self.head)
        return f"Q({head}) := {self.formula!r}"


def canonical_query(instance: Instance) -> ConjunctiveQuery:
    """The canonical (Boolean) conjunctive query of an instance.

    Nulls become existential variables, constants stay (the paper's
    "canonical fact" φ_T of Section 4).  By Chandra-Merlin, ``I ⊨ φ_T``
    iff there is a homomorphism from T to I.
    """
    renaming = {
        value: Variable(f"x{value.ident}") for value in instance.nulls()
    }
    body = tuple(
        Atom(
            item.relation,
            tuple(renaming.get(arg, arg) for arg in item.args),
        )
        for item in instance.sorted_atoms()
    )
    return ConjunctiveQuery(head=(), body=body)

"""Positive datalog: programs, semi-naive evaluation, certain answers.

Theorem 7.6 of the paper is stated for the class of *unions of
conjunctive queries* understood as **potentially infinite** disjunctions
-- "which in particular, comprises the class of datalog queries".  This
module makes that concrete: a positive datalog program is evaluated on a
CWA-solution by the semi-naive chase, each rule read as a full tgd, and
since datalog queries are preserved under homomorphisms, Lemma 7.7
applies verbatim:

    certain□(P, S) = certain◇(P, S) = P(T)↓   for any CWA-solution T,

where ``P(T)↓`` keeps the null-free tuples of the goal predicate.

Syntax (via :func:`parse_program`)::

    reach(x)    :- start(x).
    reach(y)    :- reach(x), edge(x, y).

Predicates that appear in rule heads are intensional (IDB); the others
are extensional (EDB) and are read from the instance.  Only positive
bodies are supported (no negation -- exactly the fragment the theorem
covers).
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..chase.seminaive import seminaive_chase
from ..core.atoms import Atom
from ..core.errors import ParseError, UnsupportedQueryError
from ..core.instance import Instance
from ..core.terms import Value, Variable
from ..dependencies.tgd import Tgd
from ..obs import provenance
from .parser import _Parser


class Rule:
    """A datalog rule ``head :- body``.

    The head must be a single atom; every head variable must occur in
    the body (safety).
    """

    def __init__(self, head: Atom, body: Sequence[Atom]):
        self.head = head
        self.body: Tuple[Atom, ...] = tuple(body)
        if not self.body:
            raise UnsupportedQueryError(
                f"facts are read from the instance; rule {head!r} has no body"
            )
        body_variables: Set[Variable] = set()
        for atom in self.body:
            body_variables |= atom.variables
        unsafe = self.head.variables - body_variables
        if unsafe:
            name = sorted(unsafe, key=lambda v: v.name)[0]
            raise UnsupportedQueryError(
                f"unsafe rule: head variable {name} not bound in the body"
            )

    def __repr__(self) -> str:
        body = ", ".join(repr(atom) for atom in self.body)
        return f"{self.head!r} :- {body}"


class DatalogProgram:
    """A positive datalog program with a designated goal predicate."""

    def __init__(self, rules: Sequence[Rule], goal: str):
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self.goal = goal
        self.idb: FrozenSet[str] = frozenset(
            rule.head.relation.name for rule in self.rules
        )
        if goal not in self.idb and not any(
            atom.relation.name == goal
            for rule in self.rules
            for atom in rule.body
        ):
            raise UnsupportedQueryError(
                f"goal predicate {goal!r} does not occur in the program"
            )
        goal_arities = {
            rule.head.relation.arity
            for rule in self.rules
            if rule.head.relation.name == goal
        }
        self.goal_arity = goal_arities.pop() if goal_arities else next(
            atom.relation.arity
            for rule in self.rules
            for atom in rule.body
            if atom.relation.name == goal
        )
        self._tgds = [Tgd(rule.body, (rule.head,)) for rule in self.rules]
        self._head_values: FrozenSet[Value] = frozenset(
            arg
            for rule in self.rules
            for arg in rule.head.args
            if isinstance(arg, Value)
        )

    @property
    def is_recursive(self) -> bool:
        """True if some IDB predicate (transitively) feeds itself."""
        edges: Dict[str, Set[str]] = {}
        for rule in self.rules:
            head = rule.head.relation.name
            for atom in rule.body:
                if atom.relation.name in self.idb:
                    edges.setdefault(head, set()).add(atom.relation.name)

        def reaches(start: str, goal: str, seen: Set[str]) -> bool:
            if start == goal and seen:
                return True
            for successor in edges.get(start, ()):
                if successor == goal:
                    return True
                if successor not in seen:
                    seen.add(successor)
                    if reaches(successor, goal, seen):
                        return True
            return False

        return any(reaches(name, name, set()) for name in self.idb)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, instance: Instance) -> Instance:
        """The least fixpoint: EDB facts plus all derivable IDB facts.

        A rule ``head :- body`` is the full tgd ``body → head``, so the
        fixpoint is the semi-naive chase of ``instance`` by the rules.
        Nulls are ordinary values (naive evaluation), as Lemma 7.7
        requires.  A full tgd invents no value, so the chase fires at
        most once per head atom over the active domain and the head
        constants: that count is its step budget.  An open
        provenance ledger records none of it.
        """
        domain = len(instance.active_domain() | self._head_values)
        budget = sum(
            domain ** rule.head.relation.arity for rule in self.rules
        )
        with provenance.paused():
            outcome = seminaive_chase(instance, self._tgds, max_steps=budget)
        return outcome.require_success()

    def answers(self, instance: Instance) -> FrozenSet[Tuple[Value, ...]]:
        """Goal tuples over the least fixpoint (naive: nulls included)."""
        fixpoint = self.evaluate(instance)
        return frozenset(
            atom.args for atom in fixpoint.atoms_of(self.goal)
        )

    def certain_part(self, instance: Instance) -> FrozenSet[Tuple[Value, ...]]:
        """``P(I)↓``: the null-free goal tuples."""
        return frozenset(
            answer
            for answer in self.answers(instance)
            if all(value.is_constant for value in answer)
        )

    def __repr__(self) -> str:
        rules = "\n".join(repr(rule) for rule in self.rules)
        return f"-- goal: {self.goal}\n{rules}"


def parse_rule(text: str) -> Rule:
    """Parse one rule, e.g. ``"reach(y) :- reach(x), edge(x, y)"``."""
    parser = _Parser(text)
    head = parser.parse_atom()
    parser.expect("RULE")
    body = [parser.parse_atom()]
    while parser.accept("COMMA") or parser.accept("AND"):
        body.append(parser.parse_atom())
    parser.accept("DOT")
    parser.require_end()
    return Rule(head, body)


def parse_program(text: str, goal: str) -> DatalogProgram:
    """Parse a program: one rule per line (or '.'-terminated), comments
    with ``%`` or ``#``.

    >>> program = parse_program('''
    ...     reach(x) :- start(x).
    ...     reach(y) :- reach(x), edge(x, y).
    ... ''', goal="reach")
    >>> program.is_recursive
    True
    """
    rules: List[Rule] = []
    for raw_line in re.split(r"[\n]+", text):
        line = re.split(r"[%#]", raw_line, 1)[0].strip()
        if not line:
            continue
        rules.append(parse_rule(line))
    if not rules:
        raise ParseError("a datalog program needs at least one rule", text)
    return DatalogProgram(rules, goal)

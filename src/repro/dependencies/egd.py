"""Equality generating dependencies.

An egd has the form ``∀x̄ (ϕ(x̄) → y = z)`` where ϕ is a conjunction of
relational atoms over the target schema and y, z are variables of x̄
(Section 2 of the paper).  Applying an egd to an instance either

* *succeeds* -- one of the two matched values is a null and gets replaced
  by the other (if both are nulls, the larger is replaced by the smaller,
  footnote 4), or
* *fails* -- both matched values are distinct constants (Definition 4.1).
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom
from ..core.errors import DependencyError
from ..core.instance import Instance
from ..core.schema import RelationSymbol, Schema
from ..core.terms import Null, Value, Variable
from ..logic.formulas import is_conjunction_of_atoms
from ..logic.matching import match_plan
from ..logic.parser import _Parser
from ..logic.plans import plan_for
from ..logic import formulas as fo
from .base import Dependency


class Egd(Dependency):
    """An equality generating dependency ``ϕ(x̄) → left = right``."""

    def __init__(
        self,
        premise_atoms: Sequence[Atom],
        left: Variable,
        right: Variable,
        name: str = "",
    ):
        self.premise_atoms: Tuple[Atom, ...] = tuple(premise_atoms)
        self.left = left
        self.right = right
        self.name = name
        if not self.premise_atoms:
            raise DependencyError("an egd needs at least one premise atom")
        premise_variables: Set[Variable] = set()
        for atom in self.premise_atoms:
            premise_variables |= atom.variables
        for side in (left, right):
            if side not in premise_variables:
                raise DependencyError(
                    f"egd equates {side}, which does not occur in the premise"
                )

    @property
    def is_egd(self) -> bool:
        return True

    def premise_relations(self) -> FrozenSet[RelationSymbol]:
        return frozenset(atom.relation for atom in self.premise_atoms)

    def conclusion_relations(self) -> FrozenSet[RelationSymbol]:
        return frozenset()

    # ------------------------------------------------------------------
    # Matching and application
    # ------------------------------------------------------------------

    def violations(self, instance: Instance) -> Iterator[Tuple[Value, Value]]:
        """Pairs ``(u_k, u_l)`` with ``I ⊨ ϕ[ū]`` and ``u_k ≠ u_l``.

        These are exactly the matches to which the egd "can be applied"
        in the sense of Definition 4.1.  The premise runs through the
        egd's held plan, resolved on the first call.
        """
        plan = self._held_plan
        if plan is None:
            plan = self._held_plan = plan_for(self.premise_atoms, (), ())
        seen: Set[Tuple[Value, Value]] = set()
        for pair in match_plan(plan, instance, (self.left, self.right)):
            if pair[0] != pair[1] and pair not in seen:
                seen.add(pair)
                yield pair

    def first_violation(self, instance: Instance) -> Optional[Tuple[Value, Value]]:
        """The first violating pair, or None if the egd is satisfied."""
        for pair in self.violations(instance):
            return pair
        return None

    def is_satisfied(self, instance: Instance) -> bool:
        return self.first_violation(instance) is None

    @staticmethod
    def merge_direction(left: Value, right: Value) -> Optional[Tuple[Value, Value]]:
        """How to resolve ``left = right``: returns ``(old, new)`` meaning
        "replace old by new", or None if both are (distinct) constants --
        the failing case.

        The replacement rule follows footnote 4 of the paper: a null is
        replaced by a constant; between two nulls, the larger identifier is
        replaced by the smaller.
        """
        left_is_null = isinstance(left, Null)
        right_is_null = isinstance(right, Null)
        if left_is_null and right_is_null:
            return (left, right) if right < left else (right, left)
        if left_is_null:
            return (left, right)
        if right_is_null:
            return (right, left)
        return None  # two distinct constants: the application fails

    # ------------------------------------------------------------------
    # Parsing and printing
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, text: str, schema: Optional[Schema] = None, name: str = "") -> "Egd":
        """Parse ``ϕ -> y = z``.

        >>> d = Egd.parse("F(x,y) & F(x,z) -> y = z")
        >>> d.left.name, d.right.name
        ('y', 'z')
        """
        parser = _Parser(text, schema)
        premise_formula = parser.parse_conjunction()
        parser.expect("ARROW")
        left_token = parser.expect("IDENT")
        parser.expect("EQ")
        right_token = parser.expect("IDENT")
        parser.require_end()
        if not is_conjunction_of_atoms(premise_formula):
            raise DependencyError(
                f"egd premise must be a conjunction of atoms: {text!r}"
            )
        return cls(
            premise_atoms=fo.atoms_of(premise_formula),
            left=Variable(left_token.text),
            right=Variable(right_token.text),
            name=name,
        )

    def __repr__(self) -> str:
        premise = " ∧ ".join(repr(atom) for atom in self.premise_atoms)
        label = f"{self.name}: " if self.name else ""
        return f"{label}{premise} → {self.left} = {self.right}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Egd)
            and self.premise_atoms == other.premise_atoms
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(("Egd", self.premise_atoms, self.left, self.right))

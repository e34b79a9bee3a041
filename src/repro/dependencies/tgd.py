"""Tuple generating dependencies.

A tgd has the form ``∀x̄ ∀ȳ (ϕ(x̄, ȳ) → ∃z̄ ψ(x̄, z̄))`` where ψ is a
conjunction of relational atoms and ϕ is

* an arbitrary (active-domain) first-order formula for s-t-tgds (the
  paper follows [12] here, footnote 2), or
* a conjunction of relational atoms for target tgds.

Variable roles follow the paper's notation exactly:

* ``x̄`` -- the *frontier*: premise variables that also occur in ψ,
* ``ȳ`` -- premise-only variables,
* ``z̄`` -- existentially quantified conclusion variables.

The split matters because a justification (Section 4) is a quadruple
``(d, ū, v̄, z)`` with ``ū`` a tuple for x̄ and ``v̄`` a tuple for ȳ: the
*same* ū with different v̄ gives *different* justifications, which is why
weak acyclicity does not bound the α-chase but rich acyclicity does
(discussion after Proposition 7.4).
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom
from ..core.errors import DependencyError
from ..core.instance import Instance
from ..core.schema import RelationSymbol, Schema
from ..core.terms import Value, Variable
from ..logic.evaluation import satisfying_assignments
from ..logic.formulas import Formula, is_conjunction_of_atoms
from ..logic.matching import _check_values, exists_plan, match
from ..logic.parser import _Parser
from ..logic.plans import plan_for
from ..logic import formulas as fo
from .base import Dependency, format_variables


class Tgd(Dependency):
    """A tuple generating dependency.

    Premises are stored in one of two forms:

    * ``premise_atoms`` -- the common case, a conjunction of atoms,
      matched through the indexed matcher;
    * ``premise_formula`` -- an arbitrary FO formula over the source
      schema (s-t-tgds only), evaluated by brute force.
    """

    def __init__(
        self,
        premise_atoms: Optional[Sequence[Atom]] = None,
        conclusion_atoms: Sequence[Atom] = (),
        premise_formula: Optional[Formula] = None,
        name: str = "",
    ):
        if (premise_atoms is None) == (premise_formula is None):
            raise DependencyError(
                "exactly one of premise_atoms / premise_formula must be given"
            )
        self.premise_atoms: Optional[Tuple[Atom, ...]] = (
            tuple(premise_atoms) if premise_atoms is not None else None
        )
        self.premise_formula = premise_formula
        self.conclusion_atoms: Tuple[Atom, ...] = tuple(conclusion_atoms)
        self.name = name
        # For s-t-tgds with FO premises: the schema the premise speaks
        # about.  Footnote 2 of the paper relativizes premise quantifiers
        # to the active domain *with respect to σ*; the exchange layer
        # sets this to σ so that premise evaluation uses the σ-reduct.
        self.premise_schema: Optional["Schema"] = None
        if not self.conclusion_atoms:
            raise DependencyError("a tgd needs at least one conclusion atom")

        premise_variables = self._premise_variables()
        conclusion_variables: Set[Variable] = set()
        for atom in self.conclusion_atoms:
            conclusion_variables |= atom.variables

        # x̄: frontier; ȳ: premise-only; z̄: existential.
        self.frontier: Tuple[Variable, ...] = tuple(
            sorted(premise_variables & conclusion_variables, key=lambda v: v.name)
        )
        self.premise_only: Tuple[Variable, ...] = tuple(
            sorted(premise_variables - conclusion_variables, key=lambda v: v.name)
        )
        self.existential: Tuple[Variable, ...] = tuple(
            sorted(conclusion_variables - premise_variables, key=lambda v: v.name)
        )
        #: x̄ as a set, for restricting premise matches to the frontier.
        self.frontier_set: FrozenSet[Variable] = frozenset(self.frontier)
        #: The variables of a premise binding ``ū‖v̄``: x̄, then ȳ.
        self.binding_order: Tuple[Variable, ...] = self.frontier + self.premise_only
        # ψ's atoms as (relation, template) pairs: an int entry indexes
        # ``ū‖w̄`` (x̄ then z̄), any other entry is a constant.
        position = {
            variable: index
            for index, variable in enumerate(self.frontier + self.existential)
        }
        self._conclusion_templates: Tuple[Tuple[RelationSymbol, Tuple], ...] = tuple(
            (atom.relation, tuple(position.get(arg, arg) for arg in atom.args))
            for atom in self.conclusion_atoms
        )

    def _premise_variables(self) -> Set[Variable]:
        if self.premise_atoms is not None:
            out: Set[Variable] = set()
            for atom in self.premise_atoms:
                out |= atom.variables
            return out
        return set(self.premise_formula.free_variables())

    # ------------------------------------------------------------------
    # Shape properties
    # ------------------------------------------------------------------

    @property
    def is_tgd(self) -> bool:
        return True

    @property
    def is_full(self) -> bool:
        """Full tgds have no existential quantifiers (Proposition 5.4)."""
        return not self.existential

    @property
    def has_conjunctive_premise(self) -> bool:
        return self.premise_atoms is not None

    def premise_relations(self) -> FrozenSet[RelationSymbol]:
        if self.premise_atoms is not None:
            return frozenset(atom.relation for atom in self.premise_atoms)
        return frozenset(
            atom.relation for atom in fo.atoms_of(self.premise_formula)
        )

    def conclusion_relations(self) -> FrozenSet[RelationSymbol]:
        return frozenset(atom.relation for atom in self.conclusion_atoms)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------

    def premise_bindings(self, instance: Instance) -> Iterator[Tuple[Value, ...]]:
        """The tuple ``ū‖v̄`` of every premise match, in match order.

        ``ū`` binds x̄ and ``v̄`` binds ȳ, so a binding is the flattened
        justification key (Section 4) and its first ``len(frontier)``
        values are the frontier tuple.  Conjunctive premises run the
        matcher (compiled or, under ``interpreted_only``, interpreted);
        FO premises are evaluated over the active domain of their σ-reduct.
        """
        if self.premise_atoms is not None:
            return match(self.premise_atoms, instance, self.binding_order)
        base = (
            instance.reduct(self.premise_schema)
            if self.premise_schema is not None
            else instance
        )
        return satisfying_assignments(
            self.premise_formula, base, self.binding_order
        )

    def conclusion_holds_at(self, instance: Instance, frontier: Sequence[Value]) -> bool:
        """Standard-chase trigger test: ``I ⊨ ∃z̄ ψ[ū, z̄]`` for ū = ``frontier``.

        Used by the standard chase (fire only if this fails) -- condition
        (2) in Remark 4.3 of the paper.  ``frontier`` lists the values of
        x̄ in :attr:`frontier` order: too few or too many raise
        ValueError, and one that is not a value raises TypeError.  The
        check runs the tgd's held plan for ψ with x̄ pre-bound, resolved
        on the first call: for a full tgd, a ground plan of one probe per
        atom.
        """
        _check_values(self.frontier, frontier)
        plan = self._held_plan
        if plan is None:
            plan = self._held_plan = plan_for(
                self.conclusion_atoms, (), self.frontier
            )
        return exists_plan(plan, instance, frontier)

    def conclusion_atoms_at(
        self, frontier: Sequence[Value], witnesses: Sequence[Value]
    ) -> Tuple[Atom, ...]:
        """The atoms of ``ψ[ū, w̄]`` for ū = ``frontier``, w̄ assigned to z̄.

        Each atom is filled in from a template compiled with the tgd.
        """
        if len(witnesses) != len(self.existential):
            raise DependencyError(
                f"{len(self.existential)} witnesses expected, "
                f"got {len(witnesses)}"
            )
        values = tuple(frontier) + tuple(witnesses)
        return tuple(
            Atom(
                relation,
                [
                    values[entry] if entry.__class__ is int else entry
                    for entry in template
                ],
            )
            for relation, template in self._conclusion_templates
        )

    def conclusion_present_at(
        self,
        instance: Instance,
        frontier: Sequence[Value],
        witnesses: Sequence[Value],
    ) -> bool:
        """α-chase trigger test: are all atoms of ``ψ[ū, ᾱ(...)]`` in I?

        This is condition (1) of Definition 4.1 -- the tgd is α-applicable
        iff the premise matches and this returns False.
        """
        return all(
            atom in instance
            for atom in self.conclusion_atoms_at(frontier, witnesses)
        )

    # ------------------------------------------------------------------
    # Parsing and printing
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, text: str, schema: Optional[Schema] = None, name: str = "") -> "Tgd":
        """Parse ``premise -> conclusion`` with optional ``exists`` prefix.

        >>> d = Tgd.parse("N(x,y) -> exists z1, z2 . E(x,z1) & F(x,z2)")
        >>> d.is_full
        False
        >>> [v.name for v in d.existential]
        ['z1', 'z2']
        """
        parser = _Parser(text, schema)
        premise_formula = parser.parse_disjunction()
        parser.expect("ARROW")
        existential: List[Variable] = []
        if parser.accept("EXISTS"):
            existential.append(Variable(parser.expect("IDENT").text))
            while parser.accept("COMMA"):
                existential.append(Variable(parser.expect("IDENT").text))
            parser.expect("DOT")
        conclusion_formula = parser.parse_conjunction()
        parser.require_end()

        if not is_conjunction_of_atoms(conclusion_formula):
            raise DependencyError(
                f"tgd conclusion must be a conjunction of atoms: {text!r}"
            )
        conclusion_atoms = fo.atoms_of(conclusion_formula)

        declared = set(existential)
        inferred = set()
        premise_free = premise_formula.free_variables()
        for atom in conclusion_atoms:
            inferred |= atom.variables - premise_free
        if declared and declared != inferred:
            raise DependencyError(
                f"declared existential variables {sorted(v.name for v in declared)} "
                f"differ from inferred {sorted(v.name for v in inferred)} in {text!r}"
            )

        if is_conjunction_of_atoms(premise_formula):
            return cls(
                premise_atoms=fo.atoms_of(premise_formula),
                conclusion_atoms=conclusion_atoms,
                name=name,
            )
        return cls(
            premise_formula=premise_formula,
            conclusion_atoms=conclusion_atoms,
            name=name,
        )

    def __repr__(self) -> str:
        if self.premise_atoms is not None:
            premise = " ∧ ".join(repr(atom) for atom in self.premise_atoms)
        else:
            premise = repr(self.premise_formula)
        conclusion = " ∧ ".join(repr(atom) for atom in self.conclusion_atoms)
        if self.existential:
            conclusion = f"∃{format_variables(self.existential)}. {conclusion}"
        label = f"{self.name}: " if self.name else ""
        return f"{label}{premise} → {conclusion}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tgd)
            and self.premise_atoms == other.premise_atoms
            and self.premise_formula == other.premise_formula
            and self.conclusion_atoms == other.conclusion_atoms
        )

    def __hash__(self) -> int:
        return hash(
            ("Tgd", self.premise_atoms, self.premise_formula, self.conclusion_atoms)
        )

"""Active-domain evaluation of first-order formulas on instances.

Quantifiers range over the active domain of the instance together with the
constants mentioned by the formula.  This matches the paper's convention
(footnote 2 relativizes quantifiers to the active domain) and is the
standard safe semantics for query answering over finite instances.

Nulls are treated as ordinary domain elements here: a null equals itself
and nothing else.  This "naive" reading is exactly what the definitions of
the paper need -- e.g. an instance satisfies an egd iff the egd holds in
the σ∪τ-structure whose universe is ``Dom(I)``, with each null a separate
element; and ``Q(T)`` in Section 7 is the naive evaluation on T, from
which e.g. Lemma 7.7 keeps only null-free tuples.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Optional, Sequence, Tuple

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.terms import Value, Variable
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
)

Assignment = Dict[Variable, Value]


def evaluation_domain(instance: Instance, formula: Formula) -> FrozenSet[Value]:
    """The domain quantifiers range over: active domain plus the formula's
    own constants (so sentences about constants absent from the instance
    still evaluate sensibly)."""
    return instance.active_domain() | formula.constants()


def _resolve(term, assignment: Assignment) -> Value:
    if isinstance(term, Value):
        return term
    try:
        return assignment[term]
    except KeyError:
        raise ValueError(
            f"free variable {term} has no assignment; pass it in `assignment`"
        ) from None


def holds(
    formula: Formula,
    instance: Instance,
    assignment: Optional[Assignment] = None,
    domain: Optional[FrozenSet[Value]] = None,
) -> bool:
    """Decide ``I ⊨ φ[assignment]`` with active-domain quantification.

    >>> from repro.core import Schema, atom, Instance, var
    >>> from repro.logic.formulas import RelationalAtom, Exists, Atom
    >>> tau = Schema.of(E=2)
    >>> inst = Instance([atom(tau["E"], "a", "b")])
    >>> x = var("x")
    >>> phi = Exists((x,), RelationalAtom(Atom(tau["E"], (x, x))))
    >>> holds(phi, inst)
    False
    """
    assignment = dict(assignment or {})
    if domain is None:
        domain = evaluation_domain(instance, formula)
    return _holds(formula, instance, assignment, sorted(domain))


def _holds(
    formula: Formula,
    instance: Instance,
    assignment: Assignment,
    domain: Sequence[Value],
) -> bool:
    if isinstance(formula, Truth):
        return True
    if isinstance(formula, Falsity):
        return False
    if isinstance(formula, RelationalAtom):
        args = tuple(_resolve(arg, assignment) for arg in formula.atom.args)
        return Atom(formula.atom.relation, args) in instance
    if isinstance(formula, Equality):
        return _resolve(formula.left, assignment) == _resolve(
            formula.right, assignment
        )
    if isinstance(formula, Not):
        return not _holds(formula.body, instance, assignment, domain)
    if isinstance(formula, And):
        return all(
            _holds(part, instance, assignment, domain) for part in formula.parts
        )
    if isinstance(formula, Or):
        return any(
            _holds(part, instance, assignment, domain) for part in formula.parts
        )
    if isinstance(formula, Exists):
        fast = _exists_via_matcher(formula, instance, assignment)
        if fast is not None:
            return fast
        return any(
            _holds(formula.body, instance, extended, domain)
            for extended in _extensions(assignment, formula.variables, domain)
        )
    if isinstance(formula, Forall):
        return all(
            _holds(formula.body, instance, extended, domain)
            for extended in _extensions(assignment, formula.variables, domain)
        )
    raise TypeError(f"cannot evaluate formula of type {type(formula).__name__}")


def _exists_via_matcher(
    formula: Exists, instance: Instance, assignment: Assignment
) -> Optional[bool]:
    """Fast path for ∃x̄ (conjunction of atoms and (in)equalities).

    The brute-force evaluator enumerates |domain|^|x̄| assignments; for
    the existential-conjunctive fragment (which covers every CQ-shaped
    subformula, e.g. the disjuncts of a UCQ embedded in a bigger FO
    query) the indexed backtracking matcher decides the same question in
    join time.  Returns None when the body falls outside the fragment.

    Note the fragment is evaluated with *unrestricted* matching, which
    agrees with active-domain semantics because witnesses of relational
    atoms are always active-domain values, and pure (in)equality
    conjuncts never make an inactive witness necessary: equalities pin
    variables to terms and inequalities are monotone under renaming
    inactive witnesses to other values -- except for variables
    constrained ONLY by (in)equalities, for which we bail out (return
    None) to stay exactly active-domain.
    """
    body = formula.body
    parts = body.parts if isinstance(body, And) else (body,)
    atoms = []
    equalities = []
    inequalities = []
    for part in parts:
        if isinstance(part, RelationalAtom):
            atoms.append(part.atom)
        elif isinstance(part, Equality):
            equalities.append((part.left, part.right))
        elif isinstance(part, Not) and isinstance(part.body, Equality):
            inequalities.append((part.body.left, part.body.right))
        else:
            return None

    # Every quantified variable must occur in a relational atom;
    # otherwise active-domain quantification differs from matching.
    covered = set()
    for atom in atoms:
        covered |= atom.variables
    if any(variable not in covered for variable in formula.variables):
        return None

    from .matching import exists_match

    # Pre-bind the free variables from the ambient assignment.
    free = body.free_variables() - frozenset(formula.variables)
    try:
        bound = {v: assignment[v] for v in free}
    except KeyError:
        return None

    # Equalities become substitutions; to keep this simple we only
    # handle equalities where at least one side resolves already.
    extra = {}
    for left, right in equalities:
        left_value = left if isinstance(left, Value) else (
            assignment.get(left) or extra.get(left)
        )
        right_value = right if isinstance(right, Value) else (
            assignment.get(right) or extra.get(right)
        )
        if left_value is None and right_value is None:
            return None
        if left_value is None:
            extra[left] = right_value
        elif right_value is None:
            extra[right] = left_value
        elif left_value != right_value:
            return False
    bound.update(extra)
    prebound = tuple(sorted(bound, key=lambda v: v.name))
    return exists_match(
        atoms,
        instance,
        prebound=prebound,
        values=tuple([bound[v] for v in prebound]),
        inequalities=inequalities,
    )


def _extensions(
    assignment: Assignment,
    variables: Tuple[Variable, ...],
    domain: Sequence[Value],
) -> Iterator[Assignment]:
    """All extensions of ``assignment`` mapping ``variables`` into ``domain``."""
    if not variables:
        yield assignment
        return
    head, tail = variables[0], variables[1:]
    for value in domain:
        extended = dict(assignment)
        extended[head] = value
        yield from _extensions(extended, tail, domain)


def satisfying_assignments(
    formula: Formula,
    instance: Instance,
    free: Sequence[Variable],
    domain: Optional[FrozenSet[Value]] = None,
) -> Iterator[Tuple[Value, ...]]:
    """Enumerate all tuples ``ū`` over the domain with ``I ⊨ φ[ū]``.

    This is brute-force FO evaluation -- exponential in ``len(free)`` plus
    the quantifier depth -- and is only used for general FO queries
    (Proposition 7.4), where no better data complexity is possible.
    Conjunctive queries take the indexed fast path in
    :mod:`repro.logic.queries` instead.
    """
    if domain is None:
        domain = evaluation_domain(instance, formula)
    ordered = sorted(domain)
    for extended in _extensions({}, tuple(free), ordered):
        if _holds(formula, instance, extended, ordered):
            yield tuple(extended[v] for v in free)

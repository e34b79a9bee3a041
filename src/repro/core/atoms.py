"""Atoms.

An instance is a finite set of atoms ``R(u1, ..., ur)`` (Section 2).  Atoms
over *values* populate instances; atoms over values *and variables* occur
inside formulas and dependencies.  Both are represented by :class:`Atom`;
:meth:`Atom.is_ground` distinguishes them.
"""

from __future__ import annotations

import json
from typing import FrozenSet, Iterable, Mapping, Tuple

from .errors import ArityError
from .schema import RelationSymbol
from .terms import Const, Null, Term, Value, Variable, as_value


class Atom:
    """An atom ``R(t1, ..., tr)`` where each ``ti`` is a value or variable.

    Atoms are immutable and hashable.  The constructor checks arity.
    Four derived forms are computed once per atom, on first use, and
    cached on it: the key of the total order (:meth:`sort_key`), the
    fp/v1 fingerprint token (:meth:`token`), the ``repro.io/v1`` row
    (:meth:`json_row`) and that row's JSON text (:meth:`json_text`).
    An instance shares its atoms with its copies, its cache snapshots
    and the next version a delta makes of it, so an atom that outlives
    an edit is sorted, fingerprinted and encoded once, not once per
    version.  No cache enters the pickled form.

    >>> R = RelationSymbol("R", 2)
    >>> Atom(R, (Const("a"), Null(0))).is_ground
    True
    >>> Atom(R, (Const("a"), Variable("x"))).is_ground
    False
    """

    __slots__ = (
        "relation", "args", "_hash", "_key", "_token", "_row", "_text"
    )

    def __init__(self, relation: RelationSymbol, args: Iterable[Term]):
        args = tuple(args)
        if len(args) != relation.arity:
            raise ArityError(
                f"{relation.name} has arity {relation.arity}, "
                f"got {len(args)} arguments"
            )
        self.relation = relation
        self.args = args
        self._hash = hash(("Atom", relation, args))

    @property
    def is_ground(self) -> bool:
        """True if every argument is a value (no variables)."""
        return all(isinstance(arg, Value) for arg in self.args)

    @property
    def values(self) -> Tuple[Value, ...]:
        """The value arguments (constants and nulls) in positional order."""
        return tuple(arg for arg in self.args if isinstance(arg, Value))

    @property
    def nulls(self) -> FrozenSet[Null]:
        """The nulls occurring in this atom."""
        return frozenset(arg for arg in self.args if isinstance(arg, Null))

    @property
    def constants(self) -> FrozenSet[Const]:
        """The constants occurring in this atom."""
        return frozenset(arg for arg in self.args if isinstance(arg, Const))

    @property
    def variables(self) -> FrozenSet[Variable]:
        """The variables occurring in this atom."""
        return frozenset(arg for arg in self.args if isinstance(arg, Variable))

    def substitute(self, mapping: Mapping[Term, Term]) -> "Atom":
        """Apply a substitution to every argument.

        Arguments absent from ``mapping`` are left unchanged, so partial
        substitutions are allowed (formula rewriting uses them).
        """
        return Atom(
            self.relation,
            tuple(mapping.get(arg, arg) for arg in self.args),
        )

    def rename_values(self, mapping: Mapping[Value, Value]) -> "Atom":
        """Apply a value-to-value mapping (e.g. a homomorphism) to the atom."""
        return Atom(
            self.relation,
            tuple(
                mapping.get(arg, arg) if isinstance(arg, Value) else arg
                for arg in self.args
            ),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Atom)
            and self._hash == other._hash
            and self.relation == other.relation
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        """The key of the deterministic atom order, built on first use.

        ``sorted(atoms, key=Atom.sort_key)`` gives the order of
        ``sorted(atoms)`` with one key lookup per atom instead of two
        per comparison.
        """
        try:
            return self._key
        except AttributeError:
            key = self._key = (
                self.relation.name,
                tuple(_term_sort_key(arg) for arg in self.args),
            )
            return key

    def token(self) -> bytes:
        """The atom's fp/v1 token, built on first use.

        An injective textual encoding of the atom: the length-prefixed
        relation name and arity, then one :func:`fp_cell` per argument.
        :meth:`Instance.fingerprint` hashes the sorted tokens of its
        atoms, and :mod:`repro.engine.fingerprint` encodes the atoms of
        queries and dependencies with it.
        """
        try:
            return self._token
        except AttributeError:
            name = self.relation.name
            head = f"{len(name)}:{name}/{self.relation.arity}"
            text = "\x1f".join([head, *map(fp_cell, self.args)])
            token = self._token = text.encode("utf-8")
            return token

    def json_row(self) -> list:
        """The atom's ``repro.io/v1`` row, built on first use.

        One typed cell per argument, ``["c", name]`` or ``["n", ident]``
        (:func:`repro.io.cell_to_json`).  Every payload that holds this
        atom holds this very list, so it is read-only: copy it before
        changing it.
        """
        try:
            return self._row
        except AttributeError:
            row = self._row = [
                ["n", value.ident] if value.__class__ is Null
                else ["c", value.name]
                for value in self.args
            ]
            return row

    def json_text(self) -> str:
        """``json.dumps(self.json_row())``, built on first use.

        :func:`repro.io.sorted_atoms_to_text` joins these texts into an
        instance payload's JSON, so an atom is written out once however
        many entries hold it.
        """
        try:
            return self._text
        except AttributeError:
            text = self._text = json.dumps(self.json_row())
            return text

    def __getstate__(self):
        # Only the identity fields: the sort key, token, row and text
        # are caches, rebuilt on demand, and never go into a pickle.
        return None, {
            "relation": self.relation,
            "args": self.args,
            "_hash": self._hash,
        }

    def __setstate__(self, state):
        # The hash depends on the string hash seed, which may differ in
        # the loading process: recompute it rather than trust the pickle.
        fields = state[1]
        self.relation = fields["relation"]
        self.args = fields["args"]
        self._hash = hash(("Atom", self.relation, self.args))

    def __repr__(self) -> str:
        inner = ", ".join(str(arg) for arg in self.args)
        return f"{self.relation.name}({inner})"


def fp_cell(term: Term) -> str:
    """The fp/v1 encoding of one atom argument, injective and hash-free.

    ``n<ident>`` for a null, ``c<length>:<name>`` for a constant and
    ``v<length>:<name>`` for a variable: the length prefix keeps a name
    from running into the next cell, so no two cells encode alike.
    """
    if isinstance(term, Null):
        return f"n{term.ident}"
    if isinstance(term, Const):
        return f"c{len(term.name)}:{term.name}"
    if isinstance(term, Variable):
        return f"v{len(term.name)}:{term.name}"
    raise TypeError(f"cannot fingerprint term {term!r}")


def _term_sort_key(term: Term):
    """A total order over mixed terms for deterministic printing."""
    if isinstance(term, Const):
        return (0, term.name)
    if isinstance(term, Null):
        return (1, term.ident)
    if isinstance(term, Variable):
        return (2, term.name)
    raise TypeError(f"unexpected term {term!r}")


def atom(relation: RelationSymbol, *args) -> Atom:
    """Build a ground atom, coercing raw strings/ints to constants.

    >>> R = RelationSymbol("R", 2)
    >>> atom(R, "a", Null(1))
    R(a, ⊥1)
    """
    coerced = tuple(
        arg if isinstance(arg, (Value, Variable)) else as_value(arg)
        for arg in args
    )
    return Atom(relation, coerced)


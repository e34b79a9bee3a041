"""Values and variables: constants, labeled nulls, and logic variables.

The paper (Section 2) fixes a domain ``Dom = Const ∪ Null`` where ``Const``
is a countably infinite set of constants and ``Null`` a countably infinite
set of labeled nulls, disjoint from ``Const``.  Instances may mention both;
source instances mention only constants.

Design notes
------------
* :class:`Const` and :class:`Null` are immutable and hashable, so they can
  live in sets and dictionary keys (instances are sets of atoms).
* Both classes are **interned**: at any moment, two live equal values are
  the *same object*.  Construction routes through ``__new__`` and a
  per-class :class:`weakref.WeakValueDictionary` (so unused values are
  still collected), and pickling routes back through the constructor via
  ``__reduce__``, which keeps the invariant across a pickle round
  trip.  The compiled match plans in :mod:`repro.logic.plans` rely on
  this to compare values by identity (``is``) in their inner loops.
* ``Null`` carries an integer identifier and is **totally ordered** by it.
  Definition 4.1 of the paper resolves the ambiguity of egd application by
  assuming "Null is linearly ordered so that if both u_k and u_l are nulls,
  the larger null is replaced by the smaller one"; we implement exactly
  that order.
* Constants are ordered among themselves by name; any constant sorts below
  any null.  This gives a deterministic total order on ``Dom`` which the
  chase engines use to make results reproducible.
* :class:`Variable` is *not* a value: it only occurs inside formulas and
  dependencies, never inside instances.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Iterator, Union


class Term:
    """Common base class for everything that can fill an atom position."""

    __slots__ = ()


class Value(Term):
    """Base class for domain elements (constants and nulls)."""

    __slots__ = ()

    @property
    def is_null(self) -> bool:
        raise NotImplementedError

    @property
    def is_constant(self) -> bool:
        return not self.is_null


class Const(Value):
    """A constant from the countably infinite set ``Const``.

    Constants compare by name.  Two ``Const`` objects with the same name
    are equal and interchangeable.

    Constants are interned: equal live constants are the same object.

    >>> Const("a") == Const("a")
    True
    >>> Const("a") is Const("a")
    True
    >>> Const("a").is_null
    False
    """

    __slots__ = ("name", "_hash", "__weakref__")

    _interned: "weakref.WeakValueDictionary[str, Const]" = (
        weakref.WeakValueDictionary()
    )

    def __new__(cls, name):
        # Accept ints for convenience (Example 5.3 uses P(1), ..., P(n)).
        name = str(name)
        self = cls._interned.get(name)
        if self is None:
            self = super().__new__(cls)
            self.name = name
            self._hash = hash(("Const", name))
            cls._interned[name] = self
        return self

    def __reduce__(self):
        # Unpickling re-enters __new__, so interning (and with it the
        # identity-comparison contract) survives pickling.
        return (Const, (self.name,))

    @property
    def is_null(self) -> bool:
        return False

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Const) and self.name == other.name
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other) -> bool:
        if isinstance(other, Const):
            return self.name < other.name
        if isinstance(other, Null):
            return True  # constants sort below nulls
        return NotImplemented

    def __le__(self, other) -> bool:
        return self == other or self < other

    def __repr__(self) -> str:
        return f"Const({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Null(Value):
    """A labeled null -- a placeholder for an unknown value.

    Nulls compare by their integer identifier; the identifier also defines
    the linear order used when an egd merges two nulls (the larger is
    replaced by the smaller, footnote 4 of the paper).

    Fresh nulls should be obtained from a :class:`NullFactory` so that
    identifiers never collide within one computation.

    Nulls are interned: equal live nulls are the same object.
    """

    __slots__ = ("ident", "_hash", "__weakref__")

    _interned: "weakref.WeakValueDictionary[int, Null]" = (
        weakref.WeakValueDictionary()
    )

    def __new__(cls, ident: int):
        ident = int(ident)
        self = cls._interned.get(ident)
        if self is None:
            self = super().__new__(cls)
            self.ident = ident
            self._hash = hash(("Null", ident))
            cls._interned[ident] = self
        return self

    def __reduce__(self):
        return (Null, (self.ident,))

    @property
    def is_null(self) -> bool:
        return True

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Null) and self.ident == other.ident
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other) -> bool:
        if isinstance(other, Null):
            return self.ident < other.ident
        if isinstance(other, Const):
            return False  # nulls sort above constants
        return NotImplemented

    def __le__(self, other) -> bool:
        return self == other or self < other

    def __repr__(self) -> str:
        return f"Null({self.ident})"

    def __str__(self) -> str:
        return f"⊥{self.ident}"


class Variable(Term):
    """A first-order variable, used in formulas and dependencies only."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        self.name = str(name)
        self._hash = hash(("Variable", self.name))

    def __reduce__(self):
        # The hash depends on the string hash seed: recompute it on load.
        return (Variable, (self.name,))

    def __eq__(self, other) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other) -> bool:
        if isinstance(other, Variable):
            return self.name < other.name
        return NotImplemented

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name


class NullFactory:
    """Produces fresh nulls with strictly increasing identifiers.

    A factory can be *seeded above* an existing instance so the nulls it
    produces are guaranteed fresh with respect to that instance:

    >>> factory = NullFactory(start=10)
    >>> factory.fresh()
    Null(10)
    >>> factory.fresh()
    Null(11)
    """

    def __init__(self, start: int = 0):
        self._counter = itertools.count(start)

    def fresh(self) -> Null:
        """Return a null no previous call of this factory has returned."""
        return Null(next(self._counter))

    def fresh_tuple(self, n: int) -> tuple:
        """Return a tuple of ``n`` pairwise distinct fresh nulls."""
        return tuple(self.fresh() for _ in range(n))

    @classmethod
    def above(cls, values) -> "NullFactory":
        """A factory whose nulls exceed every null identifier in ``values``."""
        highest = -1
        for value in values:
            if isinstance(value, Null) and value.ident > highest:
                highest = value.ident
        return cls(start=highest + 1)


def const(name) -> Const:
    """Shorthand constructor for constants."""
    return Const(name)


def null(ident: int) -> Null:
    """Shorthand constructor for a null with an explicit identifier."""
    return Null(ident)


def var(name: str) -> Variable:
    """Shorthand constructor for variables."""
    return Variable(name)


def variables(names: str) -> Iterator[Variable]:
    """Build several variables from a whitespace-separated string.

    >>> x, y = variables("x y")
    >>> x
    Variable('x')
    """
    return (Variable(name) for name in names.split())


def constants(names: str) -> Iterator[Const]:
    """Build several constants from a whitespace-separated string."""
    return (Const(name) for name in names.split())


ValueLike = Union[Value, str, int]


def as_value(item: ValueLike) -> Value:
    """Coerce a raw Python value to a domain element.

    Strings and integers become constants; :class:`Value` instances pass
    through unchanged.  This keeps example and test code terse without
    blurring the constant/null distinction.
    """
    if isinstance(item, Value):
        return item
    if isinstance(item, (str, int)):
        return Const(item)
    raise TypeError(f"cannot interpret {item!r} as a domain value")

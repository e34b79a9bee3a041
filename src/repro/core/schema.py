"""Schemas: finite sets of relation symbols with fixed arities.

A data exchange setting has two *disjoint* schemas: the source schema σ and
the target schema τ (Section 2 of the paper).  :class:`Schema` enforces
arity consistency and offers set-like operations needed by the exchange
layer (union for the joint schema ρ = σ ∪ τ, disjointness checks, and the
"primed copy" construction used by copying settings in Section 3).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple

from .errors import SchemaError


class RelationSymbol:
    """A relation symbol with a name and a fixed arity.

    Symbols compare by ``(name, arity)`` so that structurally equal schemas
    built independently are interchangeable.
    """

    __slots__ = ("name", "arity", "_hash")

    def __init__(self, name: str, arity: int):
        if arity < 0:
            raise SchemaError(f"arity of {name} must be non-negative, got {arity}")
        self.name = str(name)
        self.arity = int(arity)
        self._hash = hash(("RelationSymbol", self.name, self.arity))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RelationSymbol)
            and self.name == other.name
            and self.arity == other.arity
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # The hash depends on the string hash seed: recompute it on load.
        return (RelationSymbol, (self.name, self.arity))

    def __lt__(self, other) -> bool:
        if isinstance(other, RelationSymbol):
            return (self.name, self.arity) < (other.name, other.arity)
        return NotImplemented

    def __repr__(self) -> str:
        return f"RelationSymbol({self.name!r}, {self.arity})"

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"

    def primed(self, suffix: str = "_t") -> "RelationSymbol":
        """The copy ``R'`` of this symbol used by copying settings."""
        return RelationSymbol(self.name + suffix, self.arity)


class Schema:
    """An immutable finite set of relation symbols.

    >>> sigma = Schema.of(M=2, N=2)
    >>> sigma["M"].arity
    2
    >>> len(sigma)
    2
    """

    __slots__ = ("_by_name",)

    def __init__(self, symbols: Iterable[RelationSymbol] = ()):
        by_name: Dict[str, RelationSymbol] = {}
        for symbol in symbols:
            existing = by_name.get(symbol.name)
            if existing is not None and existing != symbol:
                raise SchemaError(
                    f"conflicting arities for relation {symbol.name}: "
                    f"{existing.arity} vs {symbol.arity}"
                )
            by_name[symbol.name] = symbol
        self._by_name = by_name

    @classmethod
    def of(cls, **arities: int) -> "Schema":
        """Build a schema from keyword arguments ``name=arity``."""
        return cls(RelationSymbol(name, arity) for name, arity in arities.items())

    @classmethod
    def from_mapping(cls, arities: Mapping[str, int]) -> "Schema":
        """Build a schema from a ``{name: arity}`` mapping."""
        return cls(RelationSymbol(name, arity) for name, arity in arities.items())

    def __contains__(self, item) -> bool:
        if isinstance(item, RelationSymbol):
            return self._by_name.get(item.name) == item
        return item in self._by_name

    def __getitem__(self, name: str) -> RelationSymbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown relation symbol {name!r}") from None

    def get(self, name: str):
        """The symbol named ``name``, or None if absent."""
        return self._by_name.get(name)

    def __iter__(self) -> Iterator[RelationSymbol]:
        return iter(sorted(self._by_name.values()))

    def __len__(self) -> int:
        return len(self._by_name)

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and self._by_name == other._by_name

    def __hash__(self) -> int:
        return hash(frozenset(self._by_name.values()))

    def __repr__(self) -> str:
        inner = ", ".join(str(symbol) for symbol in self)
        return f"Schema({{{inner}}})"

    @property
    def names(self) -> Tuple[str, ...]:
        """Relation names, sorted."""
        return tuple(sorted(self._by_name))

    def union(self, other: "Schema") -> "Schema":
        """The joint schema; arities must agree on shared names."""
        return Schema(list(self._by_name.values()) + list(other._by_name.values()))

    def __or__(self, other: "Schema") -> "Schema":
        return self.union(other)

    def disjoint_from(self, other: "Schema") -> bool:
        """True if no relation name is shared (required for σ and τ)."""
        return not set(self._by_name) & set(other._by_name)

    def primed(self, suffix: str = "_t") -> "Schema":
        """The schema ``{R' | R ∈ self}`` of copying settings (Section 3)."""
        return Schema(symbol.primed(suffix) for symbol in self)

    def positions(self) -> Tuple[Tuple[RelationSymbol, int], ...]:
        """All positions ``(R, i)`` over this schema (Definition 6.5).

        Positions are 0-based here, unlike the paper's 1-based convention;
        this is an internal representation detail only.
        """
        return tuple(
            (symbol, i) for symbol in self for i in range(symbol.arity)
        )

"""Base class and parsing entry points for dependencies.

A dependency over a schema is a logical sentence (Section 2).  The paper
restricts attention to

* source-to-target tuple generating dependencies (s-t-tgds),
* target tgds, and
* equality generating dependencies (egds),

which is exactly what this package implements.  Following [12] (Libkin,
PODS'06), s-t-tgds may have an arbitrary first-order premise over the
source schema (footnote 2); target tgds and egds have conjunctions of
relational atoms as premises.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import DependencyError, ParseError
from ..core.schema import RelationSymbol, Schema
from ..core.terms import Variable


class Dependency:
    """Common interface of tgds and egds.

    A dependency holds the compiled plan of the one pattern it matches
    over and over (:attr:`_held_plan`: a tgd's conclusion check, an
    egd's premise), resolved on first use.  The plan is derived data:
    it takes no part in equality, hashing or ``repr``, and is left out
    of the pickled state, so a copy resolves its own.
    """

    #: The held :class:`repro.logic.plans.CompiledPattern`, or None
    #: until first use.
    _held_plan = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_held_plan", None)
        return state

    def premise_relations(self) -> FrozenSet[RelationSymbol]:
        """Relation symbols used in the premise."""
        raise NotImplementedError

    def conclusion_relations(self) -> FrozenSet[RelationSymbol]:
        """Relation symbols used in the conclusion (empty for egds)."""
        raise NotImplementedError

    @property
    def is_tgd(self) -> bool:
        return False

    @property
    def is_egd(self) -> bool:
        return False


def split_dependencies(
    dependencies: Iterable[Dependency],
) -> Tuple[List[Dependency], List[Dependency]]:
    """Partition into (tgds, egds), preserving order."""
    tgds: List[Dependency] = []
    egds: List[Dependency] = []
    for dependency in dependencies:
        if dependency.is_tgd:
            tgds.append(dependency)
        elif dependency.is_egd:
            egds.append(dependency)
        else:
            raise DependencyError(f"unknown dependency kind: {dependency!r}")
    return tgds, egds


def parse_dependency(text: str, schema: Optional[Schema] = None) -> Dependency:
    """Parse a tgd or an egd, deciding by the shape of the conclusion.

    >>> d = parse_dependency("F(x,y) & F(x,z) -> y = z")
    >>> d.is_egd
    True
    >>> d = parse_dependency("N(x,y) -> exists z1, z2 . E(x,z1) & F(x,z2)")
    >>> d.is_tgd
    True
    """
    # Imported here to avoid a circular import at module load time.
    from .egd import Egd
    from .tgd import Tgd

    arrow = _top_level_arrow(text)
    if arrow < 0:
        raise ParseError("a dependency needs a top-level '->'", text)
    conclusion_text = text[arrow + 2 :]
    if _looks_like_egd_conclusion(conclusion_text):
        return Egd.parse(text, schema)
    return Tgd.parse(text, schema)


def parse_dependencies(
    texts: Iterable[str], schema: Optional[Schema] = None
) -> List[Dependency]:
    """Parse several dependencies (one per string)."""
    return [parse_dependency(text, schema) for text in texts]


def _top_level_arrow(text: str) -> int:
    """Index of the first ``->`` not nested inside parentheses/quotes."""
    depth = 0
    index = 0
    quote = ""
    while index < len(text) - 1:
        char = text[index]
        if quote:
            if char == quote:
                quote = ""
        elif char in "'\"":
            quote = char
        elif char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif depth == 0 and text[index : index + 2] == "->":
            return index
        index += 1
    return -1


def _looks_like_egd_conclusion(conclusion: str) -> bool:
    """True if the conclusion is a bare equality ``y = z``.

    Atoms contain parentheses and tgd conclusions contain atoms, so a
    conclusion without parentheses that contains ``=`` is an egd head.
    """
    stripped = conclusion.strip()
    return "(" not in stripped and "=" in stripped


def format_variables(variables: Sequence[Variable]) -> str:
    return ", ".join(v.name for v in variables)

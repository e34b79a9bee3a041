"""Dependency graphs and acyclicity notions.

Implements Definition 6.5 (the *dependency graph* and **weak acyclicity**,
from Fagin et al. / Deutsch-Tannen) and Definition 7.3 (the *extended
dependency graph* and **rich acyclicity**, introduced by this paper).

Positions are pairs ``(R, i)`` over the target schema; edges come from the
target tgds:

* for every premise variable ``x ∈ x̄`` (a frontier variable) at position
  p in ϕ: a **regular edge** from p to every position of x in ψ, and an
  **existential edge** from p to every position of a z̄-variable in ψ;
* rich acyclicity additionally adds existential edges from positions of
  the premise-only variables ``ȳ`` to positions of z̄-variables
  (Definition 7.3) -- this is what bounds the number of *justifications*
  and hence the α-chase.

A setting is weakly (richly) acyclic iff no cycle of the (extended)
dependency graph contains an existential edge; equivalently, iff no
existential edge has both endpoints in the same strongly connected
component.  We compute SCCs with an iterative Tarjan.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..core.schema import RelationSymbol
from ..core.terms import Variable
from .base import Dependency, split_dependencies
from .tgd import Tgd

Position = Tuple[RelationSymbol, int]
Edge = Tuple[Position, Position]


class DependencyGraph:
    """The (extended) dependency graph of a set of target dependencies."""

    def __init__(self, regular_edges: Iterable[Edge], existential_edges: Iterable[Edge]):
        self.regular_edges: FrozenSet[Edge] = frozenset(regular_edges)
        self.existential_edges: FrozenSet[Edge] = frozenset(existential_edges)

    @property
    def edges(self) -> FrozenSet[Edge]:
        return self.regular_edges | self.existential_edges

    def vertices(self) -> FrozenSet[Position]:
        out: Set[Position] = set()
        for source, destination in self.edges:
            out.add(source)
            out.add(destination)
        return frozenset(out)

    def successors(self) -> Dict[Position, List[Position]]:
        adjacency: Dict[Position, List[Position]] = {}
        for source, destination in self.edges:
            adjacency.setdefault(source, []).append(destination)
            adjacency.setdefault(destination, [])
        return adjacency

    def strongly_connected_components(self) -> List[FrozenSet[Position]]:
        """Tarjan's algorithm, iterative to avoid recursion limits."""
        adjacency = self.successors()
        index_counter = [0]
        indices: Dict[Position, int] = {}
        lowlinks: Dict[Position, int] = {}
        on_stack: Set[Position] = set()
        stack: List[Position] = []
        components: List[FrozenSet[Position]] = []

        for root in adjacency:
            if root in indices:
                continue
            work: List[Tuple[Position, int]] = [(root, 0)]
            while work:
                node, child_index = work.pop()
                if child_index == 0:
                    indices[node] = index_counter[0]
                    lowlinks[node] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                children = adjacency[node]
                while child_index < len(children):
                    child = children[child_index]
                    child_index += 1
                    if child not in indices:
                        work.append((node, child_index))
                        work.append((child, 0))
                        recurse = True
                        break
                    if child in on_stack:
                        lowlinks[node] = min(lowlinks[node], indices[child])
                if recurse:
                    continue
                if lowlinks[node] == indices[node]:
                    component: Set[Position] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(frozenset(component))
                if work:
                    parent = work[-1][0]
                    lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
        return components

    def has_existential_edge_on_cycle(self) -> bool:
        """True iff some cycle contains an existential edge.

        An edge lies on a cycle iff both endpoints are in the same SCC
        (self-loops form singleton SCCs with the edge present).
        """
        component_of: Dict[Position, int] = {}
        for number, component in enumerate(self.strongly_connected_components()):
            for position in component:
                component_of[position] = number
        for source, destination in self.existential_edges:
            if source == destination:
                return True
            if component_of.get(source) == component_of.get(destination):
                return True
        return False


def _positions_of(variable: Variable, atoms) -> List[Position]:
    """All positions ``(R, i)`` at which ``variable`` appears in ``atoms``."""
    positions: List[Position] = []
    for atom in atoms:
        for index, argument in enumerate(atom.args):
            if argument == variable:
                positions.append((atom.relation, index))
    return positions


def _tgd_edges(tgd: Tgd, extended: bool) -> Tuple[Set[Edge], Set[Edge]]:
    """Regular and existential edges contributed by one tgd.

    ``extended=True`` adds the rich-acyclicity edges from premise-only
    variables (Definition 7.3).
    """
    if tgd.premise_atoms is None:
        raise ValueError(
            "dependency graphs are defined for tgds with conjunctive "
            "premises (target tgds always have one)"
        )
    regular: Set[Edge] = set()
    existential: Set[Edge] = set()

    existential_positions: List[Position] = []
    for variable in tgd.existential:
        existential_positions.extend(
            _positions_of(variable, tgd.conclusion_atoms)
        )

    for variable in tgd.frontier:
        sources = _positions_of(variable, tgd.premise_atoms)
        targets = _positions_of(variable, tgd.conclusion_atoms)
        for source in sources:
            for target in targets:
                regular.add((source, target))
            for target in existential_positions:
                existential.add((source, target))

    if extended:
        for variable in tgd.premise_only:
            for source in _positions_of(variable, tgd.premise_atoms):
                for target in existential_positions:
                    existential.add((source, target))

    return regular, existential


def dependency_graph(
    target_dependencies: Sequence[Dependency], extended: bool = False
) -> DependencyGraph:
    """The (extended) dependency graph of the target tgds.

    Egds contribute no edges (they generate no tuples).
    """
    tgds, _ = split_dependencies(target_dependencies)
    regular: Set[Edge] = set()
    existential: Set[Edge] = set()
    for tgd in tgds:
        tgd_regular, tgd_existential = _tgd_edges(tgd, extended)
        regular |= tgd_regular
        existential |= tgd_existential
    return DependencyGraph(regular, existential)


def is_weakly_acyclic(target_dependencies: Sequence[Dependency]) -> bool:
    """Definition 6.5: no cycle of the dependency graph contains an
    existential edge."""
    graph = dependency_graph(target_dependencies, extended=False)
    return not graph.has_existential_edge_on_cycle()


def is_richly_acyclic(target_dependencies: Sequence[Dependency]) -> bool:
    """Definition 7.3: no cycle of the *extended* dependency graph contains
    an existential edge.  Every richly acyclic setting is weakly acyclic."""
    graph = dependency_graph(target_dependencies, extended=True)
    return not graph.has_existential_edge_on_cycle()


def to_dot(graph: DependencyGraph, title: str = "dependency graph") -> str:
    """Render a dependency graph in Graphviz DOT format.

    Regular edges are solid, existential edges dashed (the convention of
    the data exchange literature); positions print as ``R.i`` with the
    paper's 1-based index.  Paste into any DOT viewer to see why a
    setting is or is not weakly/richly acyclic.
    """

    def node(position: Position) -> str:
        relation, index = position
        return f'"{relation.name}.{index + 1}"'

    lines = [f"digraph \"{title}\" {{", "  rankdir=LR;"]
    for position in sorted(
        graph.vertices(), key=lambda p: (p[0].name, p[1])
    ):
        lines.append(f"  {node(position)};")
    for source, destination in sorted(
        graph.regular_edges,
        key=lambda e: (e[0][0].name, e[0][1], e[1][0].name, e[1][1]),
    ):
        lines.append(f"  {node(source)} -> {node(destination)};")
    for source, destination in sorted(
        graph.existential_edges,
        key=lambda e: (e[0][0].name, e[0][1], e[1][0].name, e[1][1]),
    ):
        lines.append(
            f"  {node(source)} -> {node(destination)} "
            "[style=dashed, label=\"∃\"];"
        )
    lines.append("}")
    return "\n".join(lines)


def chase_depth_bound(
    target_dependencies: Sequence[Dependency], domain_size: int
) -> int:
    """A polynomial bound on standard-chase length for weakly acyclic Σt.

    Fagin et al. show the standard chase of a weakly acyclic setting stops
    after polynomially many steps; the exponent depends on the longest
    path rank of positions in the dependency graph.  We return a safe,
    simple over-approximation: ``(domain_size + 2) ** (rank + 2)`` summed
    over relations, capped to keep budgets sane.  Used only as a step
    budget, never for correctness.
    """
    graph = dependency_graph(target_dependencies, extended=False)
    vertices = graph.vertices()
    if not vertices:
        return max(1000, domain_size * domain_size + 10)
    rank = len(vertices)
    base = max(2, domain_size + 2)
    bound = base ** min(rank + 2, 8)
    return min(bound, 50_000_000)

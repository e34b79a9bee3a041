"""Synthetic workload generators.

The paper has no empirical section, so every benchmark instance is
synthetic; these generators produce the scalable families used by the
benchmark harness (see DESIGN.md §2) and by the property-based tests.

All generators take an explicit ``random.Random`` seed or instance so
benchmark runs are reproducible.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Union

from ..core.atoms import Atom
from ..core.instance import Instance
from ..core.schema import RelationSymbol, Schema
from ..core.terms import Const
from ..exchange.setting import DataExchangeSetting

RandomLike = Union[int, random.Random, None]


def _rng(seed: RandomLike) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def random_source_instance(
    schema: Schema,
    domain_size: int,
    atoms_per_relation: int,
    seed: RandomLike = 0,
) -> Instance:
    """A random ground instance over ``schema``.

    Values are drawn uniformly from ``{c0, ..., c(domain_size-1)}``.
    """
    rng = _rng(seed)
    domain = [Const(f"c{i}") for i in range(domain_size)]
    instance = Instance()
    for relation in schema:
        for _ in range(atoms_per_relation):
            args = tuple(rng.choice(domain) for _ in range(relation.arity))
            instance.add(Atom(relation, args))
    return instance


def random_graph_instance(
    nodes: int,
    edges: int,
    seed: RandomLike = 0,
    edge_name: str = "E",
    label_name: Optional[str] = "P",
    labeled_fraction: float = 0.2,
) -> Instance:
    """A random directed graph with an optional unary label relation."""
    rng = _rng(seed)
    edge_relation = RelationSymbol(edge_name, 2)
    instance = Instance()
    names = [Const(f"v{i}") for i in range(nodes)]
    for _ in range(edges):
        left, right = rng.choice(names), rng.choice(names)
        instance.add(Atom(edge_relation, (left, right)))
    if label_name is not None:
        label_relation = RelationSymbol(label_name, 1)
        for name in names:
            if rng.random() < labeled_fraction:
                instance.add(Atom(label_relation, (name,)))
    return instance


def cycle_instance(
    length: int,
    prefix: str,
    edge_name: str = "E",
    labeled: Sequence[int] = (),
    label_name: str = "P",
) -> Instance:
    """A directed cycle ``prefix0 → prefix1 → ... → prefix0``.

    Used by the Section 3 anomaly: the paper's S* is the disjoint union
    of two 9-cycles with one P-labeled node.
    """
    edge_relation = RelationSymbol(edge_name, 2)
    label_relation = RelationSymbol(label_name, 1)
    instance = Instance()
    names = [Const(f"{prefix}{i}") for i in range(length)]
    for index in range(length):
        instance.add(
            Atom(edge_relation, (names[index], names[(index + 1) % length]))
        )
    for index in labeled:
        instance.add(Atom(label_relation, (names[index],)))
    return instance


def section_3_source(cycle_length: int = 9) -> Instance:
    """The paper's S*: two disjoint cycles, a₄ labeled P (Section 3)."""
    left = cycle_instance(cycle_length, "a", labeled=(4,))
    right = cycle_instance(cycle_length, "b")
    return left.union(right)


def employee_source(
    employees: int,
    departments: int,
    seed: RandomLike = 0,
) -> Instance:
    """Employees assigned to departments -- workload for egd settings."""
    rng = _rng(seed)
    relation = RelationSymbol("Emp", 2)
    instance = Instance()
    for index in range(employees):
        dept = rng.randrange(departments)
        instance.add(
            Atom(relation, (Const(f"e{index}"), Const(f"d{dept}")))
        )
    return instance


def chain_setting(length: int) -> DataExchangeSetting:
    """A weakly acyclic setting whose chase cascades through ``length``
    target relations: ``R0 → R1 → ... → R_length`` with one fresh null
    per hop.  Scales chase depth for the existence benchmark."""
    sigma = Schema.of(R0=2)
    target_relations = {f"R{i}": 2 for i in range(1, length + 1)}
    tau = Schema.from_mapping(target_relations)
    st = ["R0(x, y) -> exists z . R1(y, z)"]
    tdeps = [
        f"R{i}(x, y) -> exists z . R{i + 1}(y, z)"
        for i in range(1, length)
    ]
    return DataExchangeSetting.from_strings(sigma, tau, st, tdeps)


def chain_source(atoms: int) -> Instance:
    """A path of the given length over R0 for :func:`chain_setting`."""
    relation = RelationSymbol("R0", 2)
    instance = Instance()
    for index in range(atoms):
        instance.add(
            Atom(relation, (Const(f"u{index}"), Const(f"u{index + 1}")))
        )
    return instance


def star_source(rays: int, relation_name: str = "N") -> Instance:
    """``{N(hub, leaf_i)}`` -- drives settings like Example 2.1's d₂."""
    relation = RelationSymbol(relation_name, 2)
    instance = Instance()
    hub = Const("hub")
    for index in range(rays):
        instance.add(Atom(relation, (hub, Const(f"leaf{index}"))))
    return instance


def example_2_1_scaled_source(pairs: int, seed: RandomLike = 0) -> Instance:
    """A scaled version of Example 2.1's source: ``pairs`` rows in M and
    2·``pairs`` rows in N over a proportional constant pool."""
    rng = _rng(seed)
    m_relation = RelationSymbol("M", 2)
    n_relation = RelationSymbol("N", 2)
    pool = [Const(f"c{i}") for i in range(max(2, pairs))]
    instance = Instance()
    for _ in range(pairs):
        instance.add(Atom(m_relation, (rng.choice(pool), rng.choice(pool))))
    for _ in range(2 * pairs):
        instance.add(Atom(n_relation, (rng.choice(pool), rng.choice(pool))))
    return instance


def disjoint_scaled_sources(
    copies: int, pairs: int, seed: RandomLike = 0
) -> Instance:
    """A disjoint union of ``copies`` scaled Example 2.1 sources.

    Each copy draws its constants from its own prefixed pool
    (``s<k>_c<i>``), so the union has exactly ``copies`` value-connected
    components (assuming each copy is itself connected, which holds for
    the dense M/N families at these sizes): identical in shape to the
    Example 2.1 family, but with many small Gaifman blocks per copy.
    """
    rng = _rng(seed)
    union = Instance()
    for index in range(copies):
        copy = example_2_1_scaled_source(pairs, seed=rng.randint(0, 10**9))
        renaming = {
            value: Const(f"s{index}_{value.name}")
            for value in copy.active_domain()
        }
        union.add_all(copy.rename_values(renaming))
    return union

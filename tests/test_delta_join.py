"""The semi-naive delta join: right answers, per-fact order, less work.

:meth:`repro.chase.seminaive.DeltaSource.matches` joins each seed
position's delta facts once per *join key* (the values of the seed's
variables that the rest of the premise also uses) and splices each
fact's own values into the shared completions.  These tests check it
three ways:

* against an oracle that shares no code with the chase: the closure a
  breadth-first search finds on random strongly connected digraphs;
* against a per-fact reference written here, which runs one completion
  join per delta fact: same bindings, same order;
* against a work bound: one ``solve`` runs at most one completion join
  per distinct (pass, seed, key) triple.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase import seminaive
from repro.chase.seminaive import DeltaSource
from repro.core import Atom, Const, Instance, Null, RelationSymbol
from repro.core.terms import Value
from repro.dependencies import parse_dependencies
from repro.exchange import solve
from repro.logic.matching import match

from .test_trigger_memo import closure_setting, strongly_connected_digraph


def bfs_closure(source):
    """Every ``(tail, head)`` with a non-empty ``Edge`` path, by BFS."""
    successors = {}
    for atom in source:
        tail, head = atom.args
        successors.setdefault(tail, []).append(head)
    pairs = set()
    for start in successors:
        reached = set()
        frontier = [start]
        while frontier:
            following = []
            for node in frontier:
                for head in successors.get(node, ()):
                    if head not in reached:
                        reached.add(head)
                        following.append(head)
            frontier = following
        pairs.update((start, head) for head in reached)
    return pairs


class TestClosureOracle:
    @given(st.integers(2, 12), st.integers(0, 30), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_closure_equals_bfs(self, nodes, chords, seed):
        edges = min(nodes + chords, nodes * (nodes - 1))
        source = strongly_connected_digraph(nodes, edges, seed)
        result = solve(closure_setting(), source)
        paths = {atom.args for atom in result.canonical_solution.atoms_of("Path")}
        assert paths == bfs_closure(source)
        assert len(paths) == nodes * nodes


# Premises with a join key, with no shared variable (key ``()``), with
# a constant in a seed, with a repeated variable in a seed, with three
# atoms and with a self-join.
TGDS = parse_dependencies(
    [
        "R(x, y) & S(y, z) -> T(x, z)",
        "R(x, y) & S(u, v) -> T(x, v)",
        "R(x, 'a') & S(x, z) -> T(x, z)",
        "R(x, x) & S(x, z) -> T(x, z)",
        "R(x, y) & S(y, z) & R(z, w) -> T(x, w)",
        "R(x, y) & R(y, x) -> T(x, y)",
    ]
)

R = RelationSymbol("R", 2)
S = RelationSymbol("S", 2)
VALUES = (Const("a"), Const("b"), Const("c"), Null(0))


def per_fact_reference(tgd, instance, delta):
    """The delta join with one completion join per delta fact.

    Each seed position unifies each delta fact of its relation with the
    seed atom, pre-binds every variable of the seed and completes the
    rest of the premise; bindings are deduplicated in order of first
    occurrence.  A premise with a relation wholly in the delta is one
    full scan, as in :meth:`DeltaSource.matches`.
    """
    groups = {}
    for atom in delta:
        if atom in instance:
            groups.setdefault(atom.relation.name, {})[atom] = None
    atoms = tgd.premise_atoms
    for atom in atoms:
        bucket = groups.get(atom.relation.name)
        if bucket and len(bucket) == instance.count_of(atom.relation.name):
            return list(tgd.premise_bindings(instance))
    seen = set()
    bindings = []
    for index, pattern in enumerate(atoms):
        rest = atoms[:index] + atoms[index + 1 :]
        for fact in groups.get(pattern.relation.name, ()):
            theta = {}
            for term, value in zip(pattern.args, fact.args):
                if isinstance(term, Value):
                    if term != value:
                        break
                elif theta.setdefault(term, value) != value:
                    break
            else:
                prebound = tuple(sorted(theta, key=lambda v: v.name))
                for binding in match(
                    rest,
                    instance,
                    tgd.binding_order,
                    prebound=prebound,
                    values=[theta[variable] for variable in prebound],
                ):
                    if binding not in seen:
                        seen.add(binding)
                        bindings.append(binding)
    return bindings


@st.composite
def instances_with_delta(draw):
    pairs = st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES))
    atoms = [
        Atom(relation, pair)
        for relation in (R, S)
        for pair in draw(st.lists(pairs, max_size=7))
    ]
    delta = [atom for atom in atoms if draw(st.booleans())]
    return Instance(atoms), draw(st.permutations(delta))


class TestPerFactReference:
    @given(instances_with_delta())
    @settings(max_examples=150, deadline=None)
    def test_same_bindings_in_the_same_order(self, drawn):
        instance, delta = drawn
        source = DeltaSource(TGDS, instance, delta)
        for tgd in TGDS:
            assert list(source.matches(tgd, instance)) == per_fact_reference(
                tgd, instance, delta
            ), tgd

    def test_a_premise_without_a_shared_variable_joins_once(self, monkeypatch):
        """With key ``()`` each seed position runs one completion join."""
        joins = []
        original = seminaive.match_plan

        def counted(plan, instance, variables, values=(), **kwargs):
            joins.append(values)
            return original(plan, instance, variables, values, **kwargs)

        monkeypatch.setattr(seminaive, "match_plan", counted)
        tgd = TGDS[1]
        instance = Instance(
            [Atom(R, (a, b)) for a in VALUES for b in VALUES[:2]]
            + [Atom(S, (a, a)) for a in VALUES]
        )
        delta = [Atom(R, (a, VALUES[0])) for a in VALUES] + [
            Atom(S, (VALUES[1], VALUES[1]))
        ]
        bindings = list(DeltaSource(TGDS, instance, delta).matches(tgd, instance))
        assert bindings == per_fact_reference(tgd, instance, delta)
        assert joins == [(), ()]


class TestWorkBound:
    def test_one_completion_join_per_pass_seed_and_key(self, monkeypatch):
        """On the 20-node closure, one ``solve`` completes 295 seeded
        delta facts with 69 joins, one per (pass, seed, key) triple."""
        passes = [0]
        joins = []
        seeded = []
        triples = set()
        match_original = seminaive.match_plan
        unify_original = seminaive._Seed.unify
        advance_original = DeltaSource.advance

        def counted_match(*args, **kwargs):
            joins.append(1)
            return match_original(*args, **kwargs)

        def counted_unify(seed, fact):
            values = unify_original(seed, fact)
            if values is not None and seed.rest:
                # Path(x, y) & Link(y, z): each seed's key is y.
                key = fact.args[1] if seed.relation == "Path" else fact.args[0]
                seeded.append(fact)
                triples.add((passes[0], seed.relation, key))
            return values

        def counted_advance(source):
            passes[0] += 1
            advance_original(source)

        monkeypatch.setattr(seminaive, "match_plan", counted_match)
        monkeypatch.setattr(seminaive._Seed, "unify", counted_unify)
        monkeypatch.setattr(DeltaSource, "advance", counted_advance)
        source = strongly_connected_digraph(20, 40, seed=3)
        result = solve(closure_setting(), source)
        assert result.canonical_solution.count_of("Path") == 20 * 20
        assert joins
        assert len(joins) <= len(triples)
        assert 3 * len(joins) < len(seeded)

"""The batched chase checks each trigger's conclusion at most once.

:func:`repro.chase.loop.chase_rounds` remembers, per tgd, the frontier
tuples whose conclusion is known to hold and skips their check.  These
tests pin that the memo changes nothing but the number of checks: the
standard chase logs exactly the steps of a reference loop that checks
every trigger, a merge that rewrites a memoized null is honoured, and
the transitive-closure chase checks each (tgd, frontier tuple) once.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase import satisfies_all, standard_chase
from repro.chase.result import ChaseStatus
from repro.core import Atom, Const, Instance, Null, NullFactory, RelationSymbol
from repro.core.schema import Schema
from repro.dependencies import parse_dependencies
from repro.dependencies.base import split_dependencies
from repro.dependencies.egd import Egd
from repro.dependencies.tgd import Tgd
from repro.exchange import DataExchangeSetting, solve
from repro.generators import random_source_for, random_weakly_acyclic_setting


def reference_chase(instance, dependencies, null_factory=None):
    """The batched standard chase without a memo: every trigger is checked.

    Rounds of egd fixpoint, then one full-scan pass per tgd, in the
    given dependency order.  Returns the status and the step log as
    ``(kind, dependency, binding, added, merged)`` tuples.
    """
    tgds, egds = split_dependencies(list(dependencies))
    current = instance.copy()
    factory = null_factory or current.null_factory()
    log = []
    while True:
        while True:
            for egd in egds:
                violation = egd.first_violation(current)
                if violation is None:
                    continue
                direction = Egd.merge_direction(*violation)
                if direction is None:
                    return ChaseStatus.FAILURE, log, current
                old, new = direction
                current.replace_value(old, new)
                log.append(("egd", egd, (), [], (old, new)))
                break
            else:
                break
        fired = False
        for tgd in tgds:
            for premise_match in list(tgd.premise_matches(current)):
                if tgd.conclusion_holds(current, premise_match):
                    continue
                witnesses = factory.fresh_tuple(len(tgd.existential))
                added = [
                    item
                    for item in tgd.conclusion_atoms_under(premise_match, witnesses)
                    if current.add(item)
                ]
                binding = tuple(
                    (variable.name, premise_match[variable])
                    for variable in tgd.frontier + tgd.premise_only
                )
                log.append(("tgd", tgd, binding, added, None))
                fired = True
        if not fired:
            return ChaseStatus.SUCCESS, log, current


def step_log(outcome):
    return [
        (step.kind, step.dependency, step.binding, list(step.added), step.merged)
        for step in outcome.trace
    ]


def assert_same_run(instance, dependencies, null_factory=None, other_factory=None):
    status, expected, final = reference_chase(instance, dependencies, null_factory)
    outcome = standard_chase(
        instance, dependencies, trace=True, null_factory=other_factory
    )
    assert outcome.status is status
    actual = step_log(outcome)
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"step {index}"
    if status is ChaseStatus.SUCCESS:
        assert outcome.instance == final
    return outcome


class TestStepForStep:
    @given(st.integers(min_value=0, max_value=10_000), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_random_weakly_acyclic_settings(self, seed, atoms):
        setting = random_weakly_acyclic_setting(seed, egd_probability=0.5)
        source = random_source_for(
            setting, seed, atoms_per_relation=atoms, domain_size=3
        )
        assert_same_run(source, list(setting.all_dependencies))

    def test_merge_heavy_chase(self):
        dependencies = parse_dependencies(
            [
                "E(x, y) -> exists z . F(x, y, z)",
                "F(x, y, z) & F(x, y2, z2) -> z = z2",
                "F(x, y, z) -> exists u . H(z, y, u)",
                "H(z, y, u) & H(z, y2, u2) -> u = u2",
            ]
        )
        relation = RelationSymbol("E", 2)
        rng = random.Random(7)
        source = Instance(
            Atom(relation, tuple(Const(f"c{rng.randrange(5)}") for _ in "xy"))
            for _ in range(25)
        )
        outcome = assert_same_run(source, dependencies)
        assert outcome.successful
        assert any(step.kind == "egd" for step in outcome.trace)

    def test_merge_rewrites_a_memoized_frontier_tuple(self):
        """A merged-away null that comes back must be checked again.

        Round 0 memoizes t2's frontier tuple (⊥2): G(⊥2, c) holds.  The
        egd then merges ⊥2 into b.  The caller's factory starts at 2, so
        t3 re-issues ⊥2 in F(c, ⊥2), where no G(⊥2, _) exists; t2 must
        fire on (⊥2) again instead of trusting the stale entry.
        """
        dependencies = parse_dependencies(
            [
                "F(x, y) & F(x, z) -> y = z",
                "F(x, z) -> exists w . G(z, w)",
                "B(y) -> F('a', y)",
                "G(x, y) & B(x) -> exists v . F(y, v)",
            ]
        )
        F, G = RelationSymbol("F", 2), RelationSymbol("G", 2)
        B = RelationSymbol("B", 1)
        null = Null(2)
        source = Instance(
            [
                Atom(F, (Const("a"), null)),
                Atom(G, (null, Const("c"))),
                Atom(B, (Const("b"),)),
            ]
        )
        outcome = assert_same_run(
            source, dependencies, NullFactory(start=2), NullFactory(start=2)
        )
        assert outcome.successful
        assert satisfies_all(outcome.instance, dependencies)
        kinds = [(step.kind, step.merged) for step in outcome.trace]
        merge = kinds.index(("egd", (null, Const("b"))))
        t2 = dependencies[1]
        refired = [
            step
            for step in outcome.trace[merge + 1 :]
            if step.dependency is t2
            and step.binding == (("z", null), ("x", Const("c")))
        ]
        assert len(refired) == 1


def closure_setting():
    return DataExchangeSetting.from_strings(
        Schema.of(Edge=2),
        Schema.of(Link=2, Path=2),
        ["Edge(x,y) -> Link(x,y)"],
        ["Link(x,y) -> Path(x,y)", "Path(x,y) & Link(y,z) -> Path(x,z)"],
    )


def strongly_connected_digraph(nodes, edges, seed):
    """A Hamiltonian cycle plus random chords, as an ``Edge`` instance."""
    rng = random.Random(seed)
    order = list(range(nodes))
    rng.shuffle(order)
    arcs = {(order[index], order[(index + 1) % nodes]) for index in range(nodes)}
    while len(arcs) < edges:
        tail, head = rng.randrange(nodes), rng.randrange(nodes)
        if tail != head:
            arcs.add((tail, head))
    relation = RelationSymbol("Edge", 2)
    return Instance(
        Atom(relation, (Const(f"v{tail}"), Const(f"v{head}"))) for tail, head in arcs
    )


class TestCheckCount:
    def test_one_check_per_frontier_tuple(self, monkeypatch):
        checks = []
        original = Tgd.conclusion_holds_at

        def counted(tgd, instance, frontier):
            checks.append((tgd, tuple(frontier)))
            return original(tgd, instance, frontier)

        monkeypatch.setattr(Tgd, "conclusion_holds_at", counted)
        setting = closure_setting()
        source = strongly_connected_digraph(20, 40, seed=3)
        result = solve(setting, source)
        assert result.canonical_solution.count_of("Path") == 20 * 20
        assert checks
        assert len(checks) == len(set(checks))

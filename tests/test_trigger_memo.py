"""The batched chase checks each trigger's conclusion at most once.

:func:`repro.chase.loop.chase_rounds` remembers, per tgd, the frontier
tuples whose conclusion is known to hold and skips their check.  These
tests pin that the memo changes nothing but the number of checks: the
standard chase logs exactly the steps of a reference loop that checks
every trigger, a merge that rewrites a memoized null is honoured, and
the transitive-closure chase checks each (tgd, frontier tuple) once.
The default (semi-naive) ``solve`` also bounds how many premise
bindings it tries and how many egd checks it runs.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase import satisfies_all, standard_chase
from repro.chase.result import ChaseStatus
from repro.core import (
    Atom,
    Const,
    Instance,
    Null,
    NullFactory,
    RelationSymbol,
)
from repro.core.schema import Schema
from repro.dependencies import parse_dependencies
from repro.dependencies.base import split_dependencies
from repro.dependencies.egd import Egd
from repro.dependencies.tgd import Tgd
from repro.exchange import DataExchangeSetting, solve
from repro.generators import (
    example_2_1_scaled_source,
    example_2_1_setting,
    random_source_for,
    random_weakly_acyclic_setting,
)
from repro.logic.evaluation import satisfying_assignments
from repro.logic.matching import exists_match, match
from repro.obs import attribution
from repro.obs.provenance import recording


def premise_matches(tgd, instance):
    """The premise matches of ``tgd`` in ``instance``, as dicts.

    Conjunctive premises run :func:`match`; FO premises are evaluated
    over the active domain of their σ-reduct (footnote 2).
    """
    order = tgd.binding_order
    if tgd.has_conjunctive_premise:
        found = match(tgd.premise_atoms, instance, order)
    else:
        base = instance.reduct(tgd.premise_schema)
        found = satisfying_assignments(tgd.premise_formula, base, order)
    return (dict(zip(order, values)) for values in found)


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
            for premise_match in list(premise_matches(tgd, current)):
                frontier = {
                    variable: premise_match[variable] for variable in tgd.frontier
                }
                if exists_match(
                    tgd.conclusion_atoms,
                    current,
                    prebound=tgd.frontier,
                    values=tuple(frontier.values()),
                ):
                    continue
                witnesses = factory.fresh_tuple(len(tgd.existential))
                values = dict(frontier)
                values.update(zip(tgd.existential, witnesses))
                added = [
                    item
                    for item in (
                        conclusion.substitute(values)
                        for conclusion in tgd.conclusion_atoms
                    )
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


def name_uniquely(dependencies):
    """Give every dependency its own name, so that the dependency label
    of a ledger step identifies the dependency it records."""
    for index, dependency in enumerate(dependencies):
        dependency.name = f"dep{index}"


def chase_steps(ledger):
    """The tgd and egd steps a chase recorded, in chase order."""
    return [step for step in ledger.steps if step.kind in ("tgd", "egd")]


def step_log(steps):
    return [
        (step.kind, step.dependency, step.binding, list(step.added), step.merged)
        for step in steps
    ]


def assert_same_run(instance, dependencies, null_factory=None, other_factory=None):
    """Chase like :func:`reference_chase`; returns the outcome and the
    tgd and egd steps the run recorded."""
    name_uniquely(dependencies)
    status, log, final = reference_chase(instance, dependencies, null_factory)
    expected = [
        (kind, dependency.name, binding, added, merged)
        for kind, dependency, binding, added, merged in log
    ]
    with recording() as ledger:
        outcome = standard_chase(
            instance, dependencies, null_factory=other_factory
        )
    assert outcome.status is status
    steps = chase_steps(ledger)
    actual = step_log(steps)
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"step {index}"
    if status is ChaseStatus.SUCCESS:
        assert outcome.instance == final
    return outcome, steps


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
        outcome, steps = assert_same_run(source, dependencies)
        assert outcome.successful
        assert any(step.kind == "egd" for step in steps)

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
        outcome, steps = assert_same_run(
            source, dependencies, NullFactory(start=2), NullFactory(start=2)
        )
        assert outcome.successful
        assert satisfies_all(outcome.instance, dependencies)
        kinds = [(step.kind, step.merged) for step in steps]
        merge = kinds.index(("egd", (null, Const("b"))))
        t2 = dependencies[1]
        refired = [
            step
            for step in steps[merge + 1 :]
            if step.dependency == t2.name
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

    def test_closure_tries_few_premise_bindings(self):
        """Semi-naive passes join only what the last pass added.

        On this 20-node, 40-edge graph of diameter 8 the default solve
        tries under 1,000 premise bindings; a full scan per pass tries
        about 5,000.
        """
        setting = closure_setting()
        source = strongly_connected_digraph(20, 40, seed=3)
        assert diameter(source) == 8
        attribution.reset()
        with attribution.attributing():
            result = solve(setting, source)
        assert result.canonical_solution.count_of("Path") == 20 * 20
        tried = sum(
            row["triggers"] for row in attribution.dependencies().values()
        )
        attribution.reset()
        assert tried <= 1_000

    def test_egd_checked_only_where_the_delta_can_break_it(self, monkeypatch):
        """Example 2.1's egd reads F: only the pass that adds F atoms can
        violate it, so one check suffices."""
        checks = []
        original = Egd.first_violation

        def counted(egd, instance):
            checks.append(egd)
            return original(egd, instance)

        monkeypatch.setattr(Egd, "first_violation", counted)
        result = solve(example_2_1_setting(), example_2_1_scaled_source(32, seed=5))
        assert result.cwa_solution_exists
        assert len(checks) == 1


def diameter(source):
    """Longest shortest path of an ``Edge`` instance, by BFS per node."""
    successors = {}
    for atom in source:
        tail, head = atom.args
        successors.setdefault(tail, []).append(head)
    longest = 0
    for start in successors:
        distance = {start: 0}
        frontier = [start]
        while frontier:
            following = []
            for node in frontier:
                for head in successors.get(node, ()):
                    if head not in distance:
                        distance[head] = distance[node] + 1
                        following.append(head)
            frontier = following
        longest = max(longest, max(distance.values()))
    return longest

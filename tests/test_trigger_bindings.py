"""Chase triggers as value tuples ``ū‖v̄``.

The chase engines enumerate each trigger as a binding tuple ordered
``tgd.frontier + tgd.premise_only`` (:meth:`Tgd.premise_bindings`),
check it with :meth:`Tgd.conclusion_holds_at` and fire it through
:meth:`Tgd.conclusion_atoms_at`.  These tests pin that those entry
points agree with the interpreted reference matcher
:func:`match_interpreted`, through the compiled executor (with
attribution off and on) and the interpreted one, and that a conclusion
check counts the work of taking one match.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase import seminaive_chase, standard_chase
from repro.chase.alpha import binding_key
from repro.core import Atom, Const, Instance, Null, RelationSymbol
from repro.core.schema import Schema
from repro.dependencies import parse_dependency
from repro.dependencies.tgd import Tgd
from repro.exchange import DataExchangeSetting, solve
from repro.generators import random_source_for, random_weakly_acyclic_setting
from repro.logic import plans
from repro.logic.evaluation import satisfying_assignments
from repro.logic.matching import attributed, match, match_interpreted
from repro.obs import attribution, counter

from .test_trigger_memo import assert_same_run


def chased(seed, atoms=3):
    """A random setting and the chase of a random source under it, so
    target tgd premises also match values that are nulls."""
    setting = random_weakly_acyclic_setting(seed, egd_probability=0.3)
    source = random_source_for(
        setting, seed, atoms_per_relation=atoms, domain_size=3
    )
    dependencies = list(setting.all_dependencies)
    outcome = standard_chase(source, dependencies)
    instance = outcome.instance if outcome.successful else source
    tgds = [dependency for dependency in dependencies if dependency.is_tgd]
    return tgds, instance


def reference_bindings(tgd, instance):
    """The bindings the interpreted reference matcher gives, in its order."""
    return list(
        match_interpreted(tgd.premise_atoms, instance, tgd.binding_order)
    )


def counted(run):
    """``run()`` under a fresh scope, with the work it counted."""
    scope = "test.trigger_bindings"
    candidates = counter(scope + ".candidates")
    backtracks = counter(scope + ".backtracks")
    before = (candidates.value, backtracks.value)
    with attributed(scope):
        result = run()
    return result, (candidates.value - before[0], backtracks.value - before[1])


def assert_bindings_agree(tgds, instance):
    """The same bindings as the reference, in its order when the
    interpreted executor runs (the compiled join order differs), with
    the work of enumerating every premise match."""
    for tgd in tgds:
        expected = reference_bindings(tgd, instance)
        _, expected_work = counted(
            lambda: list(match(tgd.premise_atoms, instance, ()))
        )
        actual, actual_work = counted(
            lambda: list(tgd.premise_bindings(instance))
        )
        if plans.enabled():
            actual, expected = sorted(actual), sorted(expected)
        assert actual == expected, tgd
        assert actual_work == expected_work, tgd


#: Join premises: the random settings' premises are single atoms.
JOIN_TGDS = [
    parse_dependency(text)
    for text in (
        "E(x, y) & E(y, z) -> F(x, z, z)",
        "E(x, y) & E(y, x) -> exists w . F(x, w, y)",
        "E(x, y) & F(y, z, u) -> exists w . E(w, u)",
        "F(x, x, y) & E(y, 'a') -> G(y)",
        "E(x, y) & E(u, w) & F(y, w, z) -> G(z)",
    )
]

E2, F3 = RelationSymbol("E", 2), RelationSymbol("F", 3)


@st.composite
def join_instances(draw):
    values = [Const("a"), Const("b"), Const("c"), Null(0), Null(1)]
    pick = st.sampled_from(values)
    edges = draw(st.lists(st.tuples(pick, pick), max_size=12))
    triples = draw(st.lists(st.tuples(pick, pick, pick), max_size=8))
    return Instance(
        [Atom(E2, args) for args in edges] + [Atom(F3, args) for args in triples]
    )


class TestPremiseBindings:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_compiled_matcher(self, seed):
        assert_bindings_agree(*chased(seed))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_interpreted_matcher(self, seed):
        tgds, instance = chased(seed)
        with plans.interpreted_only():
            assert_bindings_agree(tgds, instance)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_profiled_executor(self, seed):
        tgds, instance = chased(seed)
        with attribution.attributing():
            assert_bindings_agree(tgds, instance)

    @given(join_instances())
    @settings(max_examples=60, deadline=None)
    def test_join_premises_on_every_executor(self, instance):
        assert_bindings_agree(JOIN_TGDS, instance)
        with plans.interpreted_only():
            assert_bindings_agree(JOIN_TGDS, instance)
        with attribution.attributing():
            assert_bindings_agree(JOIN_TGDS, instance)

    def test_binding_is_the_flattened_justification_key(self):
        tgd = parse_dependency("E(x, y) & E(y, w) -> exists z . F(x, z)")
        E = RelationSymbol("E", 2)
        a, b, c = Const("a"), Const("b"), Const("c")
        instance = Instance([Atom(E, (a, b)), Atom(E, (b, c))])
        [binding] = list(tgd.premise_bindings(instance))
        assert [v.name for v in tgd.binding_order] == ["x", "w", "y"]
        assert binding == (a, c, b)
        [frontier] = match_interpreted(tgd.premise_atoms, instance, tgd.frontier)
        [premise_only] = match_interpreted(
            tgd.premise_atoms, instance, tgd.premise_only
        )
        assert binding_key(tgd, binding) == (tgd, frontier, premise_only)
        assert binding_key(tgd, binding) == (tgd, (a,), (c, b))


class TestConclusionHoldsAt:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_exists_match(self, seed):
        self.assert_agrees(*chased(seed))

    @given(join_instances())
    @settings(max_examples=40, deadline=None)
    def test_join_conclusions(self, instance):
        self.assert_agrees(JOIN_TGDS, instance)
        with attribution.attributing():
            self.assert_agrees(JOIN_TGDS, instance)

    @staticmethod
    def assert_agrees(tgds, instance):
        for tgd in tgds:
            for frontier in match_interpreted(
                tgd.premise_atoms, instance, tgd.frontier
            ):
                seeded = dict(prebound=tgd.frontier, values=frontier)
                expected = bool(
                    list(
                        match_interpreted(
                            tgd.conclusion_atoms, instance, (), **seeded
                        )
                    )
                )
                first, first_work = counted(
                    lambda: next(
                        match(tgd.conclusion_atoms, instance, (), **seeded), None
                    )
                )
                actual, actual_work = counted(
                    lambda: tgd.conclusion_holds_at(instance, frontier)
                )
                assert actual == expected == (first is not None)
                assert actual_work == first_work


def substituted(tgd, frontier, witnesses):
    """``ψ[ū, w̄]`` by substituting into the conclusion atoms."""
    values = dict(zip(tgd.frontier + tgd.existential, frontier + witnesses))
    return tuple(item.substitute(values) for item in tgd.conclusion_atoms)


class TestConclusionAtomsAt:
    CASES = {
        "constants": "E(x, y) -> exists z . F(x, '0', z) & G('1', y)",
        "repeated variables": "E(x, y) -> exists z . F(x, x, z) & G(z, z)",
        "empty frontier": "E(x, y) -> exists z, w . G(z, w) & F(z, z, w)",
        "one-variable frontier": "E(x, y) -> exists z . G(y, z)",
        "no existentials": "E(x, y) -> G(y, x) & F(x, y, x)",
    }

    def test_equals_substituted_conclusion(self):
        E = RelationSymbol("E", 2)
        a, b = Const("a"), Const("b")
        instance = Instance([Atom(E, (a, b)), Atom(E, (b, b))])
        for name, text in self.CASES.items():
            tgd = parse_dependency(text)
            witnesses = tuple(Null(7 + i) for i in range(len(tgd.existential)))
            frontiers = list(
                match_interpreted(tgd.premise_atoms, instance, tgd.frontier)
            )
            assert frontiers, name
            for frontier in frontiers:
                expected = substituted(tgd, frontier, witnesses)
                assert tgd.conclusion_atoms_at(frontier, witnesses) == expected, name

    def test_shapes(self):
        empty = parse_dependency(self.CASES["empty frontier"])
        assert empty.frontier == ()
        one = parse_dependency(self.CASES["one-variable frontier"])
        assert len(one.frontier) == 1
        full = parse_dependency(self.CASES["no existentials"])
        assert full.is_full


def fo_setting():
    """An s-t tgd whose premise is an FO formula (negation)."""
    return DataExchangeSetting.from_strings(
        Schema.of(S=2, R=1),
        Schema.of(T=2, U=1),
        ["S(x, y) & ~R(y) -> exists z . T(x, z)", "R(y) -> U(y)"],
        ["T(x, z) -> U(x)"],
    )


def fo_source():
    S, R = RelationSymbol("S", 2), RelationSymbol("R", 1)
    a, b, c, d = (Const(name) for name in "abcd")
    return Instance(
        [
            Atom(S, (a, b)),
            Atom(S, (a, c)),
            Atom(S, (b, d)),
            Atom(S, (c, c)),
            Atom(R, (c,)),
        ]
    )


class TestFoPremise:
    def test_bindings_are_the_satisfying_assignments(self):
        setting, source = fo_setting(), fo_source()
        tgd = next(
            d for d in setting.st_dependencies if not d.has_conjunctive_premise
        )
        base = source.reduct(tgd.premise_schema)
        expected = list(
            satisfying_assignments(tgd.premise_formula, base, tgd.binding_order)
        )
        assert expected
        assert list(tgd.premise_bindings(source)) == expected

    def test_chase_agrees_with_the_substitution_loop(self):
        setting, source = fo_setting(), fo_source()
        dependencies = list(setting.all_dependencies)
        outcome, _ = assert_same_run(source, dependencies)
        assert outcome.successful
        semi = seminaive_chase(source, dependencies)
        assert semi.instance == outcome.instance
        result = solve(setting, source)
        assert result.canonical_solution == outcome.instance.reduct(
            setting.target_schema
        )

    def test_fo_premise_fires_once_per_satisfying_assignment(self):
        setting, source = fo_setting(), fo_source()
        outcome = seminaive_chase(source, list(setting.all_dependencies))
        assert {item.args[0] for item in outcome.instance.atoms_of("T")} == {
            Const("a"),
            Const("b"),
        }
        assert len(outcome.instance.atoms_of("T")) == 2


def test_tgd_binding_order_is_frontier_then_premise_only():
    tgd = Tgd.parse("E(x, y) & E(y, w) -> exists z . F(x, z)")
    assert tgd.binding_order == tgd.frontier + tgd.premise_only

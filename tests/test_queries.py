"""Tests for query classes: CQ, UCQ, FO queries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core import Const, Instance, Null, RelationSymbol, UnsupportedQueryError, Variable, atom
from repro.logic import parse_instance, parse_query, plans
from repro.logic.matching import attributed, match, match_interpreted
from repro.logic.queries import (
    ConjunctiveQuery,
    FirstOrderQuery,
    UnionOfConjunctiveQueries,
    canonical_query,
)
from repro.core import Atom

E = RelationSymbol("E", 2)
x, y = Variable("x"), Variable("y")


@pytest.fixture
def graph():
    return parse_instance("E('a','b'), E('b','c'), E('c','a'), E('a', #1)")


class TestConjunctiveQuery:
    def test_evaluate(self, graph):
        query = parse_query("Q(x) :- E(x, y), E(y, z)")
        answers = query.evaluate(graph)
        assert (Const("a"),) in answers
        assert (Const("b"),) in answers

    def test_boolean_query(self, graph):
        query = parse_query("Q() :- E(x, x)")
        assert not query.holds_in(graph)
        query2 = parse_query("Q() :- E(x, y), E(y, z), E(z, x)")
        assert query2.holds_in(graph)

    def test_answers_can_contain_nulls(self, graph):
        query = parse_query("Q(y) :- E('a', y)")
        answers = query.evaluate(graph)
        assert (Null(1),) in answers
        assert (Const("b"),) in answers

    def test_certain_part_drops_nulls(self, graph):
        query = parse_query("Q(y) :- E('a', y)")
        assert query.certain_part(graph) == frozenset({(Const("b"),)})

    def test_inequalities(self, graph):
        query = parse_query("Q(x, y) :- E(x, y), x != y")
        assert (Const("a"), Const("b")) in query.evaluate(graph)

    def test_unsafe_head_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            ConjunctiveQuery([x], [Atom(E, (y, y))])

    def test_unsafe_inequality_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            ConjunctiveQuery([x], [Atom(E, (x, x))], [(y, Const("a"))])

    def test_arity(self):
        query = parse_query("Q(x, y) :- E(x, y)")
        assert query.arity == 2
        assert not query.is_boolean

    def test_to_formula_roundtrip(self, graph):
        query = parse_query("Q(x) :- E(x, y), E(y, z)")
        formula_query = FirstOrderQuery(query.head, query.to_formula())
        assert formula_query.evaluate(graph) == query.evaluate(graph)

    def test_to_formula_with_inequality_roundtrip(self, graph):
        query = parse_query("Q(x) :- E(x, y), x != y")
        formula_query = FirstOrderQuery(query.head, query.to_formula())
        assert formula_query.evaluate(graph) == query.evaluate(graph)

    def test_has_inequalities_flag(self):
        assert parse_query("Q(x) :- E(x, y), x != y").has_inequalities
        assert not parse_query("Q(x) :- E(x, y)").has_inequalities


class TestUnionOfConjunctiveQueries:
    def test_union_evaluation(self, graph):
        query = parse_query("Q(v) :- E(v, 'b') ; Q(v) :- E('b', v)")
        answers = query.evaluate(graph)
        assert answers == frozenset({(Const("a"),), (Const("c"),)})

    def test_mixed_arity_rejected(self):
        one = parse_query("Q(x) :- E(x, y)")
        two = parse_query("Q(x, y) :- E(x, y)")
        with pytest.raises(UnsupportedQueryError):
            UnionOfConjunctiveQueries([one, two])

    def test_empty_union_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            UnionOfConjunctiveQueries([])

    def test_pure_ucq_flag(self):
        pure = parse_query("Q(x) :- E(x, y) ; Q(x) :- E(y, x)")
        assert pure.is_pure_ucq
        impure = parse_query("Q(x) :- E(x, y), x != y ; Q(x) :- E(y, x)")
        assert not impure.is_pure_ucq
        assert impure.max_inequalities_per_disjunct == 1

    def test_to_formula_aligns_heads(self, graph):
        query = parse_query("Q(v) :- E(v, 'b') ; Q(w) :- E('b', w)")
        formula_query = FirstOrderQuery(query.disjuncts[0].head, query.to_formula())
        assert formula_query.evaluate(graph) == query.evaluate(graph)


class TestFirstOrderQuery:
    def test_negation_query(self, graph):
        query = parse_query("Q(v) :- E(v, w)")  # has outgoing
        fo = parse_query("Q(v) := exists w . E(v, w)")
        assert fo.evaluate(graph) == query.evaluate(graph)

    def test_query_with_universal(self, graph):
        # nodes with outgoing edges, all of which lead to 'c': only 'b'.
        fo = parse_query(
            "Q(v) := (exists w . E(v, w)) & (forall w . E(v, w) -> w = 'c')"
        )
        assert fo.evaluate(graph) == frozenset({(Const("b"),)})

    def test_head_must_match_free_variables(self):
        from repro.logic.formulas import RelationalAtom

        with pytest.raises(UnsupportedQueryError):
            FirstOrderQuery([x], RelationalAtom(Atom(E, (x, y))))


class TestCanonicalQuery:
    def test_nulls_become_variables(self):
        inst = Instance([atom(E, "a", Null(0)), atom(E, Null(0), Null(1))])
        query = canonical_query(inst)
        assert query.arity == 0
        assert len(query.body) == 2

    def test_chandra_merlin(self):
        """I ⊨ φ_T iff hom(T → I) exists."""
        from repro.homomorphism import has_homomorphism

        t = Instance([atom(E, "a", Null(0))])
        bigger = Instance([atom(E, "a", "b")])
        unrelated = Instance([atom(E, "b", "c")])
        assert canonical_query(t).holds_in(bigger) == has_homomorphism(t, bigger)
        assert canonical_query(t).holds_in(unrelated) == has_homomorphism(t, unrelated)


# ----------------------------------------------------------------------
# Parity of CQ evaluation with the interpreted reference matcher
# ----------------------------------------------------------------------

F = RelationSymbol("F", 1)
T = RelationSymbol("T", 3)
VARIABLES = [Variable(name) for name in ("x", "y", "z")]
VALUES = [Const("a"), Const("b"), Const("c"), Null(0), Null(1)]


@st.composite
def random_instances(draw):
    out = Instance()
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        relation = draw(st.sampled_from([E, F, T]))
        out.add(
            Atom(
                relation,
                tuple(
                    draw(st.sampled_from(VALUES))
                    for _ in range(relation.arity)
                ),
            )
        )
    return out


@st.composite
def random_queries(draw):
    terms = VARIABLES + [Const("a"), Null(0)]
    body = tuple(
        Atom(
            (relation := draw(st.sampled_from([E, F, T]))),
            tuple(draw(st.sampled_from(terms)) for _ in range(relation.arity)),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    )
    bound = sorted(
        set().union(*(item.variables for item in body)), key=lambda v: v.name
    )
    head = draw(st.lists(st.sampled_from(bound), max_size=3)) if bound else []
    inequalities = ()
    if bound and draw(st.booleans()):
        sides = bound + [Const("a")]
        inequalities = (
            (draw(st.sampled_from(bound)), draw(st.sampled_from(sides))),
        )
    return ConjunctiveQuery(head, body, inequalities)


def _reference_answers(query, instance):
    return frozenset(
        match_interpreted(
            query.body, instance, query.head, inequalities=query.inequalities
        )
    )


class TestEvaluationParity:
    @given(random_queries(), random_instances())
    @settings(max_examples=200, deadline=None)
    def test_evaluate_agrees_with_interpreted_matcher(self, query, instance):
        expected = _reference_answers(query, instance)
        assert query.evaluate(instance) == expected
        with plans.interpreted_only():
            assert query.evaluate(instance) == expected
        assert query.certain_part(instance) == frozenset(
            answer
            for answer in expected
            if all(value.is_constant for value in answer)
        )
        union = UnionOfConjunctiveQueries([query, query])
        assert union.certain_part(instance) == query.certain_part(instance)

    @given(random_queries(), random_instances())
    @settings(max_examples=100, deadline=None)
    def test_evaluate_counts_the_work_of_match(self, query, instance):
        scope = "test_queries.parity"
        candidates = obs.counter(scope + ".candidates")
        backtracks = obs.counter(scope + ".backtracks")
        with attributed(scope):
            before = candidates.value, backtracks.value
            for _ in match(
                query.body, instance, (), inequalities=query.inequalities
            ):
                pass
            middle = candidates.value, backtracks.value
            query.evaluate(instance)
            after = candidates.value, backtracks.value
        assert [m - b for m, b in zip(middle, before)] == [
            a - m for a, m in zip(after, middle)
        ]

"""Tests for the backtracking conjunctive matcher."""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Atom, Const, Instance, Null, RelationSymbol, Variable, atom
from repro.logic import plans
from repro.logic.matching import exists_match, match, match_interpreted

E = RelationSymbol("E", 2)
P = RelationSymbol("P", 1)

x, y, z = Variable("x"), Variable("y"), Variable("z")


def all_matches(patterns, instance, inequalities=()):
    variables = tuple(
        sorted({v for a in patterns for v in a.variables}, key=lambda v: v.name)
    )
    return set(match(patterns, instance, variables, inequalities=inequalities))


class TestSingleAtom:
    def test_matches_every_fact(self):
        inst = Instance([atom(E, "a", "b"), atom(E, "b", "c")])
        results = all_matches([Atom(E, (x, y))], inst)
        assert results == {(Const("a"), Const("b")), (Const("b"), Const("c"))}

    def test_constant_in_pattern_filters(self):
        inst = Instance([atom(E, "a", "b"), atom(E, "b", "c")])
        results = all_matches([Atom(E, (Const("a"), y))], inst)
        assert results == {(Const("b"),)}

    def test_repeated_variable_requires_equality(self):
        inst = Instance([atom(E, "a", "a"), atom(E, "a", "b")])
        results = all_matches([Atom(E, (x, x))], inst)
        assert results == {(Const("a"),)}

    def test_no_match(self):
        inst = Instance([atom(E, "a", "b")])
        assert not exists_match([Atom(E, (Const("z"), y))], inst)

    def test_matches_nulls_as_values(self):
        inst = Instance([atom(E, "a", Null(0))])
        results = all_matches([Atom(E, (x, y))], inst)
        assert results == {(Const("a"), Null(0))}


class TestJoins:
    def test_two_atom_join(self):
        inst = Instance(
            [atom(E, "a", "b"), atom(E, "b", "c"), atom(E, "c", "d")]
        )
        patterns = [Atom(E, (x, y)), Atom(E, (y, z))]
        results = all_matches(patterns, inst)
        assert results == {
            (Const("a"), Const("b"), Const("c")),
            (Const("b"), Const("c"), Const("d")),
        }

    def test_cross_relation_join(self):
        inst = Instance([atom(E, "a", "b"), atom(P, "b")])
        patterns = [Atom(E, (x, y)), Atom(P, (y,))]
        assert all_matches(patterns, inst) == {(Const("a"), Const("b"))}

    def test_triangle(self):
        inst = Instance(
            [atom(E, "a", "b"), atom(E, "b", "c"), atom(E, "c", "a")]
        )
        patterns = [Atom(E, (x, y)), Atom(E, (y, z)), Atom(E, (z, x))]
        assert len(all_matches(patterns, inst)) == 3  # three rotations

    def test_empty_pattern_matches_once(self):
        results = list(match([], Instance([atom(P, "a")]), ()))
        assert results == [()]


class TestInitialBindings:
    def test_initial_restricts(self):
        inst = Instance([atom(E, "a", "b"), atom(E, "b", "c")])
        results = list(
            match([Atom(E, (x, y))], inst, (y,), prebound=(x,), values=(Const("b"),))
        )
        assert results == [(Const("c"),)]

    def test_initial_preserved_in_output(self):
        inst = Instance([atom(P, "a")])
        results = list(
            match([Atom(P, (x,))], inst, (x, z), prebound=(z,), values=(Const("q"),))
        )
        assert results == [(Const("a"), Const("q"))]

    @pytest.mark.parametrize("executor", [nullcontext, plans.interpreted_only])
    def test_prebound_out_of_name_order_is_rejected(self, executor):
        # Values bind to the pre-bound variables in name order, so any
        # other order would silently bind x to b and y to a.
        inst = Instance([atom(E, "a", "b")])
        patterns = [Atom(E, (x, y))]
        swapped = dict(prebound=(y, x), values=(Const("b"), Const("a")))
        with executor():
            with pytest.raises(ValueError):
                list(match(patterns, inst, (x, y), **swapped))
            with pytest.raises(ValueError):
                exists_match(patterns, inst, **swapped)
        with pytest.raises(ValueError):
            list(match_interpreted(patterns, inst, (x, y), **swapped))
        in_order = dict(prebound=(x, y), values=(Const("a"), Const("b")))
        assert list(match(patterns, inst, (x, y), **in_order)) == [
            (Const("a"), Const("b"))
        ]


class TestInequalities:
    def test_inequality_prunes(self):
        inst = Instance([atom(E, "a", "a"), atom(E, "a", "b")])
        results = all_matches(
            [Atom(E, (x, y))], inst, inequalities=[(x, y)]
        )
        assert results == {(Const("a"), Const("b"))}

    def test_inequality_with_constant(self):
        inst = Instance([atom(P, "a"), atom(P, "b")])
        results = all_matches(
            [Atom(P, (x,))], inst, inequalities=[(x, Const("a"))]
        )
        assert results == {(Const("b"),)}

    def test_violated_initial_inequality(self):
        inst = Instance([atom(P, "a")])
        assert not exists_match(
            [Atom(P, (x,))],
            inst,
            prebound=(x,),
            values=(Const("a"),),
            inequalities=[(x, Const("a"))],
        )

    def test_nulls_differ_from_constants(self):
        # A null is never equal to a constant in naive evaluation.
        inst = Instance([atom(E, "a", Null(0))])
        results = all_matches(
            [Atom(E, (x, y))], inst, inequalities=[(y, Const("a"))]
        )
        assert results == {(Const("a"), Null(0))}


@st.composite
def random_graph(draw):
    size = draw(st.integers(min_value=0, max_value=12))
    names = [Const(f"v{i}") for i in range(4)]
    atoms = [
        Atom(E, (draw(st.sampled_from(names)), draw(st.sampled_from(names))))
        for _ in range(size)
    ]
    return Instance(atoms)


@given(random_graph())
@settings(max_examples=40, deadline=None)
def test_matcher_agrees_with_bruteforce_on_paths(inst):
    """Path query E(x,y), E(y,z): matcher output == nested-loop join."""
    patterns = [Atom(E, (x, y)), Atom(E, (y, z))]
    found = all_matches(patterns, inst)
    expected = set()
    for first_atom in inst.atoms_of(E):
        for second_atom in inst.atoms_of(E):
            if first_atom.args[1] == second_atom.args[0]:
                expected.add(
                    (first_atom.args[0], first_atom.args[1], second_atom.args[1])
                )
    assert found == expected


@given(random_graph())
@settings(max_examples=40, deadline=None)
def test_matcher_with_inequality_agrees_with_bruteforce(inst):
    patterns = [Atom(E, (x, y))]
    found = all_matches(patterns, inst, inequalities=[(x, y)])
    expected = {
        (a.args[0], a.args[1]) for a in inst.atoms_of(E) if a.args[0] != a.args[1]
    }
    assert found == expected

"""Tests for tgds, egds, and dependency parsing."""

import pytest

from repro.core import Const, DependencyError, Instance, Null, atom, RelationSymbol, Variable
from repro.dependencies import Egd, Tgd, parse_dependency, split_dependencies
from repro.logic import parse_instance

E = RelationSymbol("E", 2)
F = RelationSymbol("F", 2)


class TestTgdParsing:
    def test_simple_tgd(self):
        tgd = parse_dependency("E(x, y) -> F(x, y)")
        assert tgd.is_tgd and tgd.is_full

    def test_existential_tgd(self):
        tgd = parse_dependency("E(x, y) -> exists z . F(y, z)")
        assert not tgd.is_full
        assert [v.name for v in tgd.existential] == ["z"]

    def test_variable_roles(self):
        tgd = parse_dependency("N(x, y) -> exists z1, z2 . E(x, z1) & F(x, z2)")
        assert [v.name for v in tgd.frontier] == ["x"]
        assert [v.name for v in tgd.premise_only] == ["y"]
        assert [v.name for v in tgd.existential] == ["z1", "z2"]

    def test_undeclared_existentials_inferred(self):
        tgd = parse_dependency("E(x, y) -> F(y, z)")
        assert [v.name for v in tgd.existential] == ["z"]

    def test_mismatched_declaration_rejected(self):
        with pytest.raises(DependencyError):
            parse_dependency("E(x, y) -> exists w . F(y, z)")

    def test_multi_atom_premise(self):
        tgd = parse_dependency("E(x, y) & E(y, z) -> F(x, z)")
        assert len(tgd.premise_atoms) == 2

    def test_constants_in_conclusion(self):
        tgd = parse_dependency("P(x) -> F(x, '0')")
        assert Const("0") in tgd.conclusion_atoms[0].values

    def test_fo_premise(self):
        tgd = Tgd.parse("(exists y . E(x, y)) -> G(x)")
        assert tgd.premise_formula is not None
        assert not tgd.has_conjunctive_premise

    def test_no_conclusion_rejected(self):
        with pytest.raises((DependencyError, Exception)):
            Tgd(premise_atoms=[atom(E, "a", "b")], conclusion_atoms=[])

    def test_repr_mentions_arrow(self):
        assert "→" in repr(parse_dependency("E(x, y) -> F(x, y)"))


class TestTgdSemantics:
    def test_premise_matches(self):
        tgd = parse_dependency("E(x, y) -> exists z . F(y, z)")
        inst = parse_instance("E('a','b'), E('b','c')")
        matches = list(tgd.premise_bindings(inst))
        assert len(matches) == 2

    def test_conclusion_holds(self):
        tgd = parse_dependency("E(x, y) -> exists z . F(y, z)")
        inst = parse_instance("E('a','b'), F('b','w')")
        binding = next(iter(tgd.premise_bindings(inst)))
        assert tgd.conclusion_holds_at(inst, binding[: len(tgd.frontier)])

    def test_conclusion_fails_without_witness(self):
        tgd = parse_dependency("E(x, y) -> exists z . F(y, z)")
        inst = parse_instance("E('a','b'), F('q','w')")
        binding = next(iter(tgd.premise_bindings(inst)))
        assert not tgd.conclusion_holds_at(inst, binding[: len(tgd.frontier)])

    def test_conclusion_atoms_under(self):
        tgd = parse_dependency("E(x, y) -> exists z . F(y, z)")
        inst = parse_instance("E('a','b')")
        binding = next(iter(tgd.premise_bindings(inst)))
        atoms = tgd.conclusion_atoms_at(binding[: len(tgd.frontier)], (Null(5),))
        assert atoms == (atom(F, "b", Null(5)),)

    def test_conclusion_present(self):
        tgd = parse_dependency("E(x, y) -> exists z . F(y, z)")
        inst = parse_instance("E('a','b'), F('b',#5)")
        binding = next(iter(tgd.premise_bindings(inst)))
        frontier = binding[: len(tgd.frontier)]
        assert tgd.conclusion_present_at(inst, frontier, (Null(5),))
        assert not tgd.conclusion_present_at(inst, frontier, (Null(6),))

    def test_witness_arity_checked(self):
        tgd = parse_dependency("E(x, y) -> exists z . F(y, z)")
        inst = parse_instance("E('a','b')")
        binding = next(iter(tgd.premise_bindings(inst)))
        with pytest.raises(DependencyError):
            tgd.conclusion_atoms_at(binding[: len(tgd.frontier)], ())

    def test_fo_premise_matching(self):
        tgd = Tgd.parse("(exists y . E(x, y)) -> G(x)")
        inst = parse_instance("E('a','b'), E('b','c')")
        assert tgd.binding_order == (Variable("x"),)
        matched = {binding[0] for binding in tgd.premise_bindings(inst)}
        assert matched == {Const("a"), Const("b")}

    def test_relations(self):
        tgd = parse_dependency("E(x, y) -> F(x, y)")
        assert {r.name for r in tgd.premise_relations()} == {"E"}
        assert {r.name for r in tgd.conclusion_relations()} == {"F"}


class TestEgd:
    def test_parse(self):
        egd = parse_dependency("F(x, y) & F(x, z) -> y = z")
        assert egd.is_egd
        assert egd.left.name == "y" and egd.right.name == "z"

    def test_variables_must_occur(self):
        with pytest.raises(DependencyError):
            Egd.parse("F(x, y) -> y = w")

    def test_violations(self):
        egd = parse_dependency("F(x, y) & F(x, z) -> y = z")
        inst = parse_instance("F('a','b'), F('a','c')")
        pairs = set(egd.violations(inst))
        assert (Const("b"), Const("c")) in pairs or (Const("c"), Const("b")) in pairs

    def test_satisfied(self):
        egd = parse_dependency("F(x, y) & F(x, z) -> y = z")
        assert egd.is_satisfied(parse_instance("F('a','b'), F('q','c')"))
        assert not egd.is_satisfied(parse_instance("F('a','b'), F('a','c')"))

    def test_merge_direction_null_to_constant(self):
        assert Egd.merge_direction(Null(3), Const("a")) == (Null(3), Const("a"))
        assert Egd.merge_direction(Const("a"), Null(3)) == (Null(3), Const("a"))

    def test_merge_direction_larger_null_replaced(self):
        assert Egd.merge_direction(Null(7), Null(2)) == (Null(7), Null(2))
        assert Egd.merge_direction(Null(2), Null(7)) == (Null(7), Null(2))

    def test_merge_direction_constants_fail(self):
        assert Egd.merge_direction(Const("a"), Const("b")) is None

    def test_empty_premise_rejected(self):
        with pytest.raises(DependencyError):
            Egd([], Variable("x"), Variable("x"))


class TestDispatch:
    def test_parse_dependency_dispatches(self):
        assert parse_dependency("E(x,y) -> F(x,y)").is_tgd
        assert parse_dependency("F(x,y) & F(x,z) -> y = z").is_egd

    def test_missing_arrow(self):
        from repro.core import ParseError

        with pytest.raises(ParseError):
            parse_dependency("E(x, y) & F(x, y)")

    def test_split(self):
        deps = [
            parse_dependency("E(x,y) -> F(x,y)"),
            parse_dependency("F(x,y) & F(x,z) -> y = z"),
        ]
        tgds, egds = split_dependencies(deps)
        assert len(tgds) == 1 and len(egds) == 1

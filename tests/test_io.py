"""Tests for CSV instance I/O."""

import json

import pytest

from repro.core import Const, Instance, Null, ReproError, Schema, SchemaError, atom, RelationSymbol
from repro.io import (
    JSON_SCHEMA,
    answers_from_json,
    answers_to_json,
    cell_from_json,
    cell_to_json,
    dump_instance,
    dumps_instance,
    format_cell,
    instance_from_payload,
    instance_to_payload,
    load_instance,
    load_relation,
    loads_instance,
    parse_cell,
    roundtrip_safe,
    sorted_atoms_to_payload,
)
from repro.logic import parse_instance

E = RelationSymbol("E", 2)


class TestCells:
    def test_constant_cell(self):
        assert parse_cell("alice") == Const("alice")

    def test_null_cell(self):
        assert parse_cell("_:7") == Null(7)

    def test_whitespace_stripped(self):
        assert parse_cell("  bob ") == Const("bob")

    def test_format_roundtrip(self):
        for value in (Const("x"), Null(3)):
            assert parse_cell(format_cell(value)) == value

    def test_almost_null_is_constant(self):
        assert parse_cell("_:x") == Const("_:x")


class TestLoadRelation:
    def test_basic(self, tmp_path):
        path = tmp_path / "E.csv"
        path.write_text("a,b\nb,c\n", encoding="utf-8")
        atoms = load_relation(path)
        assert len(atoms) == 2
        assert atoms[0].relation.name == "E"

    def test_nulls(self, tmp_path):
        path = tmp_path / "F.csv"
        path.write_text("a,_:1\n", encoding="utf-8")
        atoms = load_relation(path)
        assert atoms[0].args == (Const("a"), Null(1))

    def test_arity_mismatch_rejected(self, tmp_path):
        path = tmp_path / "E.csv"
        path.write_text("a,b\nc\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_relation(path, relation=E)

    def test_generated_header_skipped(self, tmp_path):
        path = tmp_path / "E.csv"
        path.write_text("col1,col2\na,b\n", encoding="utf-8")
        atoms = load_relation(path, relation=E)
        assert len(atoms) == 1

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "P.csv"
        path.write_text("a\n\n\nb\n", encoding="utf-8")
        assert len(load_relation(path)) == 2


class TestDirectoryRoundTrip:
    def test_roundtrip(self, tmp_path):
        original = parse_instance("E('a','b'), E('b',#1), P('a')")
        dump_instance(original, tmp_path / "data")
        loaded = load_instance(tmp_path / "data")
        assert loaded == original

    def test_schema_validation(self, tmp_path):
        original = parse_instance("E('a','b')")
        dump_instance(original, tmp_path / "data")
        loaded = load_instance(tmp_path / "data", Schema.of(E=2))
        assert loaded == original
        with pytest.raises(SchemaError):
            load_instance(tmp_path / "data", Schema.of(F=2))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ReproError):
            load_instance(tmp_path / "nope")

    def test_empty_directory(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ReproError):
            load_instance(tmp_path / "empty")

    def test_written_paths(self, tmp_path):
        instance = parse_instance("E('a','b'), P('a')")
        paths = dump_instance(instance, tmp_path / "out")
        assert sorted(p.name for p in paths) == ["E.csv", "P.csv"]

    def test_headerless_dump(self, tmp_path):
        instance = parse_instance("P('a')")
        dump_instance(instance, tmp_path / "raw", header=False)
        content = (tmp_path / "raw" / "P.csv").read_text(encoding="utf-8")
        assert "col1" not in content


class TestRoundtripSafety:
    def test_safe_instance(self):
        assert roundtrip_safe(parse_instance("E('a', #1)"))

    def test_null_lookalike_unsafe(self):
        inst = Instance([atom(E, "_:3", "b")])
        assert not roundtrip_safe(inst)


class TestJsonCells:
    def test_constant_cell(self):
        assert cell_to_json(Const("alice")) == ["c", "alice"]
        assert cell_from_json(["c", "alice"]) == Const("alice")

    def test_null_cell(self):
        assert cell_to_json(Null(7)) == ["n", 7]
        assert cell_from_json(["n", 7]) == Null(7)

    def test_null_lookalike_survives(self):
        # The CSV format's unsafe constant is perfectly safe here.
        assert cell_from_json(cell_to_json(Const("_:3"))) == Const("_:3")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ReproError):
            cell_from_json(["x", 1])

    def test_malformed_cell_rejected(self):
        with pytest.raises(ReproError):
            cell_from_json("nope")


class TestJsonInstanceCodec:
    def test_roundtrip_with_nulls(self):
        instance = parse_instance("E('a', #1), E(#1, #2), P('_:3')")
        assert loads_instance(dumps_instance(instance)) == instance

    def test_payload_is_versioned(self):
        payload = instance_to_payload(parse_instance("P('a')"))
        assert payload["schema"] == JSON_SCHEMA

    def test_deterministic_output(self):
        forward = parse_instance("E('a','b'), E('b','c'), P('a')")
        backward = parse_instance("P('a'), E('b','c'), E('a','b')")
        assert dumps_instance(forward) == dumps_instance(backward)

    def test_canonical_mode_aligns_isomorphic_instances(self):
        left = parse_instance("E('a', #1), E(#1, #5)")
        right = parse_instance("E('a', #8), E(#8, #2)")
        assert dumps_instance(left, canonical=True) == dumps_instance(
            right, canonical=True
        )

    def test_wrong_schema_version_rejected(self):
        payload = instance_to_payload(parse_instance("P('a')"))
        payload["schema"] = "repro.io/v0"
        with pytest.raises(ReproError):
            instance_from_payload(payload)

    def test_schema_validation(self):
        payload = instance_to_payload(parse_instance("E('a','b')"))
        schema = Schema.of(E=2)
        assert instance_from_payload(payload, schema) == parse_instance(
            "E('a','b')"
        )
        with pytest.raises(SchemaError):
            instance_from_payload(payload, Schema.of(F=2))
        with pytest.raises(SchemaError):
            instance_from_payload(payload, Schema.of(E=3))

    def test_invalid_json_rejected(self):
        with pytest.raises(ReproError):
            loads_instance("{not json")

    def test_empty_instance(self):
        assert loads_instance(dumps_instance(Instance())) == Instance()

    @pytest.mark.parametrize(
        "relations",
        [["E"], {"E": ["arity", 2]}, {"E": 7}],
        ids=["relations-list", "body-list", "body-int"],
    )
    def test_non_object_relations_rejected(self, relations):
        with pytest.raises(ReproError):
            instance_from_payload({"schema": JSON_SCHEMA, "relations": relations})

    def test_duplicate_rows_collapse(self):
        payload = instance_to_payload(parse_instance("E('a', #1), P(#1)"))
        rows = payload["relations"]["E"]["rows"]
        rows.append(list(rows[0]))
        decoded = instance_from_payload(payload)
        assert decoded == parse_instance("E('a', #1), P(#1)")
        assert len(decoded) == 2
        assert decoded.null_count() == 1
        decoded.discard(next(iter(decoded.atoms_of("E"))))
        assert decoded.nulls() == {Null(1)}

    def test_cells_of_other_json_types_decode_as_before(self):
        payload = {
            "schema": JSON_SCHEMA,
            "relations": {
                "E": {"arity": 2, "rows": [[["c", 5], ["n", "3"]]]},
            },
        }
        assert instance_from_payload(payload) == Instance(
            [atom(E, Const("5"), Null(3))]
        )

    def test_sorted_atoms_payload_equals_instance_payload(self):
        instance = parse_instance("E('b', #2), E('a', #1), P('_:3'), P(#1)")
        assert sorted_atoms_to_payload(
            instance.sorted_atoms()
        ) == instance_to_payload(instance)
        assert sorted_atoms_to_payload(()) == instance_to_payload(Instance())


def _legacy_payload(instance):
    """The ``repro.io/v1`` payload as it was built before rows were cached."""
    relations = {}
    for item in instance.sorted_atoms():
        body = relations.setdefault(
            item.relation.name, {"arity": item.relation.arity, "rows": []}
        )
        body["rows"].append([cell_to_json(value) for value in item.args])
    return {"schema": JSON_SCHEMA, "relations": relations}


class TestMalformedPayloads:
    """Every wrong shape of outside input is a ReproError, not a crash."""

    @pytest.mark.parametrize(
        "body",
        [
            {"rows": []},
            {"arity": "two", "rows": []},
            {"arity": None, "rows": []},
            {"arity": float("inf"), "rows": []},
            {"arity": 2, "rows": 5},
            {"arity": 2, "rows": {"a": 1}},
            {"arity": 2, "rows": [7]},
            {"arity": 2, "rows": [None]},
            {"arity": 2, "rows": [[["n", "q"], ["c", "a"]]]},
            {"arity": 2, "rows": [[["n", None], ["c", "a"]]]},
        ],
        ids=[
            "no-arity",
            "word-arity",
            "null-arity",
            "infinite-arity",
            "int-rows",
            "object-rows",
            "int-row",
            "null-row",
            "word-null-ident",
            "missing-null-ident",
        ],
    )
    def test_relation_body_rejected(self, body):
        payload = {"schema": JSON_SCHEMA, "relations": {"E": body}}
        with pytest.raises(ReproError):
            instance_from_payload(payload)
        with pytest.raises(ReproError):
            loads_instance(json.dumps(payload))

    def test_malformed_null_cell_rejected(self):
        for cell in (["n", "x"], ["n", None], ["n", [1]]):
            with pytest.raises(ReproError):
                cell_from_json(cell)


class TestSharedRows:
    TEXT = "E('b', #2), E('a', #1), E('a', 'b'), P('_:3'), P(#1), F('c', 'd')"

    def test_payloads_of_shared_atoms_share_rows(self):
        first = parse_instance(self.TEXT)
        second = first.copy()
        second.discard(atom(E, "a", "b"))
        second.add(atom(E, "z", Null(9)))
        assert atom(E, "a", "b") in first and atom(E, "a", "b") not in second
        left, right = instance_to_payload(first), instance_to_payload(second)
        assert left == _legacy_payload(first)
        assert right == _legacy_payload(second)
        rows = {
            id(row)
            for body in left["relations"].values()
            for row in body["rows"]
        }
        for name, body in right["relations"].items():
            # Fresh per-relation lists around the shared rows.
            assert body["rows"] is not left["relations"][name]["rows"]
            for row in body["rows"]:
                if row != [["c", "z"], ["n", 9]]:
                    assert id(row) in rows
        shared = next(iter(first.atoms_of("F")))
        assert shared.json_row() is left["relations"]["F"]["rows"][0]
        assert shared.json_row() is right["relations"]["F"]["rows"][0]

    def test_json_bytes_unchanged(self):
        instance = parse_instance(self.TEXT)
        expected = json.dumps(_legacy_payload(instance), sort_keys=True)
        # Cold rows, then the cached ones.
        assert json.dumps(instance_to_payload(instance), sort_keys=True) == expected
        assert json.dumps(instance_to_payload(instance), sort_keys=True) == expected
        assert dumps_instance(instance) == dumps_instance(
            parse_instance(self.TEXT)
        )
        canonical = instance_to_payload(instance, canonical=True)
        assert canonical == _legacy_payload(instance.canonical())


class TestAnswersCodec:
    def test_roundtrip(self):
        answers = frozenset(
            [(Const("a"), Null(1)), (Const("b"), Const("c"))]
        )
        assert answers_from_json(answers_to_json(answers)) == answers

    def test_deterministic(self):
        rows = [(Const("b"),), (Const("a"),)]
        assert answers_to_json(rows) == answers_to_json(list(reversed(rows)))

    def test_malformed_rejected(self):
        with pytest.raises(ReproError):
            answers_from_json({"not": "a list"})


class TestExchangePipeline:
    def test_exchange_from_csv_to_csv(self, tmp_path, setting_2_1, source_2_1):
        """End to end: dump S*, reload, solve, dump the core, reload."""
        from repro.exchange import solve

        dump_instance(source_2_1, tmp_path / "source")
        source = load_instance(tmp_path / "source", setting_2_1.source_schema)
        result = solve(setting_2_1, source)
        dump_instance(result.core_solution, tmp_path / "target")
        reloaded = load_instance(
            tmp_path / "target", setting_2_1.target_schema
        )
        assert reloaded == result.core_solution

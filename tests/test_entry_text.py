"""Cache entries assembled from each atom's cached JSON text.

A ``solve`` entry is written by joining pre-encoded pieces: each atom's
:meth:`Atom.json_text`, the relation headers, the payload and the
envelope.  The bytes must be the ones ``json.dumps(entry,
sort_keys=True)`` writes for the same entry, whatever the constants
hold (quotes, backslashes, control and non-ASCII characters) and
whatever order the relations were created in.
"""

import json
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Atom, Const, Instance, Null
from repro.core.schema import RelationSymbol
from repro.engine import ResultCache
from repro.engine.cache import CACHE_SCHEMA
from repro.exchange.solve import ExchangeResult, _cache_entry
from repro.io import dumps_instance, instance_to_payload, sorted_atoms_to_text

#: Created in an order unlike their sort order; the names need escapes.
RELATIONS = [
    RelationSymbol("zeta", 2),
    RelationSymbol("Alpha", 1),
    RelationSymbol('q"\\x', 2),
    RelationSymbol("été", 3),
    RelationSymbol("B", 0),
    RelationSymbol("alpha", 1),
]

_NAMES = st.one_of(
    st.sampled_from(
        ['"', "\\", 'a"b\\', "é", "日本", "\x00", "\n\t", "\x1f"]
        + ["\x7f", "\u2028", "🙂", "", "_:3", " a "]
    ),
    st.text(max_size=4),
)
_VALUES = st.one_of(
    _NAMES.map(Const), st.integers(min_value=0, max_value=20).map(Null)
)
_ATOMS = st.sampled_from(RELATIONS).flatmap(
    lambda relation: st.tuples(*[_VALUES] * relation.arity).map(
        lambda args: Atom(relation, args)
    )
)
_INSTANCES = st.lists(_ATOMS, max_size=25).map(Instance)
_KEYS = st.text("0123456789abcdef", min_size=64, max_size=64)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return ResultCache(tmp_path_factory.mktemp("entries"), memory_slots=0)


def _encoded(instance):
    return None if instance is None else instance_to_payload(instance)


def _expected_entry(key, result):
    """The entry as the JSON encoder writes it, from freshly built dicts."""
    solved = result.canonical_solution is not None
    return json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "kind": "solve",
            "key": key,
            "payload": {
                "status": "solved" if solved else "failed",
                "chase_steps": result.chase_steps,
                "canonical": _encoded(result.canonical_solution),
                "core": _encoded(result.core_solution),
            },
        },
        sort_keys=True,
    )


class TestInstanceText:
    @given(_INSTANCES)
    @settings(max_examples=200, deadline=None)
    @example(Instance())
    def test_joined_text_is_the_encoder_text(self, instance):
        text = sorted_atoms_to_text(instance.sorted_atoms())
        payload = instance_to_payload(instance)
        assert text == json.dumps(payload, sort_keys=True)
        assert text == dumps_instance(instance)

    def test_relations_follow_name_order_not_creation_order(self):
        instance = Instance(
            Atom(relation, [Const("c")] * relation.arity)
            for relation in RELATIONS
        )
        decoded = json.loads(sorted_atoms_to_text(instance.sorted_atoms()))
        assert list(decoded["relations"]) == sorted(
            relation.name for relation in RELATIONS
        )


class TestSolveEntryText:
    @given(
        canonical=_INSTANCES,
        shape=st.sampled_from(["equal", "subset", "no core", "failed"]),
        data=st.data(),
        steps=st.integers(min_value=0, max_value=10**6),
        key=_KEYS,
        presorted=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_entry_is_the_encoder_entry(
        self, cache, canonical, shape, data, steps, key, presorted
    ):
        core = None
        if shape == "equal":
            core = canonical.copy()
        elif shape == "subset":
            # The core is a retract of the canonical solution: a subset.
            atoms = canonical.sorted_atoms()
            size = len(atoms)
            kept = data.draw(
                st.lists(st.booleans(), min_size=size, max_size=size)
            )
            core = Instance(item for item, keep in zip(atoms, kept) if keep)
        elif shape == "failed":
            canonical = None
        result = ExchangeResult(None, None, canonical, core, steps)
        rows = canonical.sorted_atoms() if presorted and canonical else None
        cache.put("solve", key, *_cache_entry(result, rows))
        text = cache.path_for("solve", key).read_text(encoding="utf-8")
        assert text == _expected_entry(key, result)

    def test_empty_instance_entry(self, cache):
        result = ExchangeResult(None, None, Instance(), Instance(), 0)
        key = "0" * 64
        cache.put("solve", key, *_cache_entry(result))
        text = cache.path_for("solve", key).read_text(encoding="utf-8")
        assert text == _expected_entry(key, result)
        empty = '{"relations": {}, "schema": "repro.io/v1"}'
        assert f'"canonical": {empty}' in text

    def test_entries_without_text_are_encoded_by_put(self, cache):
        payload = {"rows": [[["c", 'é"\\']], [["n", 3]]], "verdict": True}
        key = "f" * 64
        cache.put("answers", key, payload)
        text = cache.path_for("answers", key).read_text(encoding="utf-8")
        assert text == json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "kind": "answers",
                "key": key,
                "payload": payload,
            },
            sort_keys=True,
        )


class TestAtomText:
    def test_text_is_cached_and_never_pickled(self):
        item = Atom(RELATIONS[0], (Const('a"é'), Null(4)))
        before = pickle.dumps(item)
        assert item.json_text() == json.dumps(item.json_row())
        assert item.json_text() is item.json_text()
        assert pickle.dumps(item) == before
        assert not hasattr(pickle.loads(before), "_text")

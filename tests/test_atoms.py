"""Unit tests for atoms."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ArityError,
    Atom,
    Const,
    Null,
    RelationSymbol,
    Variable,
    atom,
)

R = RelationSymbol("R", 2)
P = RelationSymbol("P", 1)


class TestAtom:
    def test_arity_checked(self):
        with pytest.raises(ArityError):
            Atom(R, (Const("a"),))

    def test_ground_detection(self):
        assert Atom(R, (Const("a"), Null(0))).is_ground
        assert not Atom(R, (Const("a"), Variable("x"))).is_ground

    def test_nulls_constants_variables(self):
        mixed = Atom(R, (Const("a"), Null(0)))
        assert mixed.constants == frozenset({Const("a")})
        assert mixed.nulls == frozenset({Null(0)})
        pattern = Atom(R, (Variable("x"), Const("a")))
        assert pattern.variables == frozenset({Variable("x")})

    def test_substitute_partial(self):
        pattern = Atom(R, (Variable("x"), Variable("y")))
        image = pattern.substitute({Variable("x"): Const("a")})
        assert image == Atom(R, (Const("a"), Variable("y")))

    def test_rename_values(self):
        ground = Atom(R, (Null(0), Null(1)))
        renamed = ground.rename_values({Null(0): Const("a")})
        assert renamed == Atom(R, (Const("a"), Null(1)))

    def test_equality_and_hash(self):
        assert Atom(R, (Const("a"), Const("b"))) == Atom(R, (Const("a"), Const("b")))
        assert len({Atom(R, (Const("a"), Const("b")))} | {Atom(R, (Const("a"), Const("b")))}) == 1

    def test_atom_helper_coerces(self):
        assert atom(R, "a", "b") == Atom(R, (Const("a"), Const("b")))
        assert atom(P, Null(0)) == Atom(P, (Null(0),))

    def test_sorting_is_deterministic(self):
        atoms = [atom(R, "b", "a"), atom(R, "a", "b"), atom(P, "a")]
        assert sorted(atoms) == [atom(P, "a"), atom(R, "a", "b"), atom(R, "b", "a")]

    def test_repr(self):
        assert repr(atom(R, "a", Null(1))) == "R(a, ⊥1)"


# ----------------------------------------------------------------------
# The cached sort key
# ----------------------------------------------------------------------

S = RelationSymbol("S", 3)


def _uncached_sort_key(item):
    """The atom order as it was before the key was cached."""

    def term_key(term):
        if isinstance(term, Const):
            return (0, term.name)
        if isinstance(term, Null):
            return (1, term.ident)
        return (2, term.name)

    return (item.relation.name, tuple(term_key(arg) for arg in item.args))


def _values():
    return st.one_of(
        st.sampled_from(["a", "b", "c10", "c9", ""]).map(Const),
        st.integers(min_value=0, max_value=12).map(Null),
    )


def _atoms():
    return st.one_of(
        st.tuples(_values()).map(lambda args: Atom(P, args)),
        st.tuples(_values(), _values()).map(lambda args: Atom(R, args)),
        st.tuples(_values(), _values(), _values()).map(
            lambda args: Atom(S, args)
        ),
    )


class TestCachedSortKey:
    @given(st.lists(_atoms(), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_order_matches_uncached_key(self, atoms):
        expected = sorted(atoms, key=_uncached_sort_key)
        assert sorted(atoms) == expected
        assert sorted(atoms, key=Atom.sort_key) == expected
        # A second sort reads the cached keys and agrees again.
        assert sorted(atoms) == expected
        for item in atoms:
            assert item.sort_key() == _uncached_sort_key(item)

    def test_key_is_cached(self):
        item = Atom(R, (Const("a"), Null(3)))
        assert item.sort_key() is item.sort_key()

    def test_pickle_leaves_the_key_behind(self):
        item = Atom(R, (Const("a"), Null(3)))
        before = pickle.dumps(item)
        item.sort_key()
        assert pickle.dumps(item) == before
        again = pickle.loads(before)
        assert again == item and hash(again) == hash(item)
        assert not hasattr(again, "_key")

    @given(st.lists(_atoms(), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_pickle_roundtrip_keeps_equality_hash_and_order(self, atoms):
        for item in atoms:
            item.sort_key()
        again = pickle.loads(pickle.dumps(atoms))
        assert again == atoms
        assert [hash(item) for item in again] == [hash(item) for item in atoms]
        assert sorted(again) == sorted(atoms)


def test_pickled_atoms_carry_no_cached_keys():
    atoms = [
        Atom(R, (Const("b"), Null(2))),
        Atom(P, (Null(1),)),
        Atom(R, (Const("a"), Const("z"))),
        Atom(S, (Null(0), Const("a"), Null(7))),
    ]
    expected = sorted(atoms)  # computes every key before pickling
    for shipped in (atoms, atoms[::-1]):
        back = pickle.loads(pickle.dumps(shipped))
        assert not any(hasattr(item, "_key") for item in back)
        assert back == shipped
        assert [hash(item) for item in back] == [
            hash(item) for item in shipped
        ]
        assert sorted(back) == expected


_PICKLE_IN_CHILD = """
import pickle, sys
from repro.core import RelationSymbol, Variable
from repro.logic import parse_instance
instance = parse_instance("E('a','b'), E('b','c'), F('c', #1)")
payload = (instance, RelationSymbol("E", 2), Variable("x"))
with open(sys.argv[1], "wb") as handle:
    pickle.dump(payload, handle)
"""

_LOAD_IN_CHILD = """
import json, pickle, sys
from repro.core import RelationSymbol, Variable
from repro.core.instance import isomorphic
from repro.logic import parse_instance
with open(sys.argv[1], "rb") as handle:
    loaded, symbol, variable = pickle.load(handle)
fresh = parse_instance("E('a','b'), E('b','c'), F('c', #1)")
json.dump(
    {
        "instance_equal": loaded == fresh,
        "atoms_found": all(item in loaded for item in fresh),
        "isomorphic": isomorphic(loaded, fresh),
        "self_isomorphic": isomorphic(loaded, loaded),
        "symbol_found": RelationSymbol("E", 2) in {symbol},
        "variable_found": Variable("x") in {variable},
    },
    sys.stdout,
)
"""


def test_pickles_load_under_another_hash_seed(tmp_path):
    """A pickle made under one ``PYTHONHASHSEED`` loads whole under another.

    String hashes differ between the two processes, so every hash the
    pickled objects cache must be recomputed on load.
    """
    import json
    import os
    import subprocess
    import sys

    import repro

    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    path = str(tmp_path / "payload.pickle")

    def child(code, seed):
        return subprocess.run(
            [sys.executable, "-c", code, path],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": seed, "PYTHONPATH": src_dir},
            check=True,
        ).stdout

    child(_PICKLE_IN_CHILD, "1")
    checks = json.loads(child(_LOAD_IN_CHILD, "2"))
    assert checks == dict.fromkeys(checks, True)
    assert len(checks) == 6

"""Unit and property tests for instances."""

import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Atom,
    Const,
    Instance,
    Null,
    RelationSymbol,
    Schema,
    SchemaError,
    Variable,
    atom,
    isomorphic,
)

E = RelationSymbol("E", 2)
P = RelationSymbol("P", 1)
Q = RelationSymbol("Q", 2)


def values():
    return st.one_of(
        st.integers(min_value=0, max_value=3).map(lambda i: Const(f"c{i}")),
        st.integers(min_value=0, max_value=3).map(Null),
    )


def instances(max_atoms=8):
    return st.lists(
        st.tuples(values(), values()).map(lambda pair: Atom(E, pair)),
        max_size=max_atoms,
    ).map(Instance)


class TestBasics:
    def test_add_and_contains(self):
        inst = Instance()
        assert inst.add(atom(E, "a", "b"))
        assert not inst.add(atom(E, "a", "b"))  # duplicate
        assert atom(E, "a", "b") in inst
        assert len(inst) == 1

    def test_non_ground_rejected(self):
        with pytest.raises(SchemaError):
            Instance().add(Atom(E, (Variable("x"), Const("a"))))

    def test_discard(self):
        inst = Instance([atom(E, "a", "b")])
        assert inst.discard(atom(E, "a", "b"))
        assert not inst.discard(atom(E, "a", "b"))
        assert len(inst) == 0

    def test_indexes_follow_discard(self):
        inst = Instance([atom(E, "a", "b"), atom(E, "a", "c")])
        inst.discard(atom(E, "a", "b"))
        assert inst.atoms_with(E, 0, Const("a")) == frozenset({atom(E, "a", "c")})
        assert inst.count_with(E, 1, Const("b")) == 0

    def test_atoms_of(self):
        inst = Instance([atom(E, "a", "b"), atom(P, "a")])
        assert inst.atoms_of("E") == frozenset({atom(E, "a", "b")})
        assert inst.atoms_of(P) == frozenset({atom(P, "a")})

    def test_relation_names(self):
        inst = Instance([atom(E, "a", "b"), atom(P, "a")])
        assert inst.relation_names() == ("E", "P")

    def test_bool(self):
        assert not Instance()
        assert Instance([atom(P, "a")])


class TestDomains:
    def test_active_domain(self):
        inst = Instance([atom(E, "a", Null(0))])
        assert inst.active_domain() == frozenset({Const("a"), Null(0)})

    def test_constants_and_nulls(self):
        inst = Instance([atom(E, "a", Null(0))])
        assert inst.constants() == frozenset({Const("a")})
        assert inst.nulls() == frozenset({Null(0)})

    def test_is_ground(self):
        assert Instance([atom(E, "a", "b")]).is_ground
        assert not Instance([atom(E, "a", Null(0))]).is_ground

    def test_null_factory_is_fresh(self):
        inst = Instance([atom(E, Null(4), Null(9))])
        assert inst.null_factory().fresh() == Null(10)


class TestAlgebra:
    def test_union(self):
        left = Instance([atom(P, "a")])
        right = Instance([atom(P, "b")])
        assert len(left | right) == 2
        assert len(left) == 1  # inputs untouched

    def test_difference(self):
        left = Instance([atom(P, "a"), atom(P, "b")])
        assert left.difference(Instance([atom(P, "a")])) == Instance([atom(P, "b")])

    def test_issubset(self):
        small = Instance([atom(P, "a")])
        big = Instance([atom(P, "a"), atom(P, "b")])
        assert small.issubset(big)
        assert not big.issubset(small)

    def test_reduct(self):
        inst = Instance([atom(E, "a", "b"), atom(P, "a")])
        assert inst.reduct(Schema.of(P=1)) == Instance([atom(P, "a")])

    def test_copy_is_independent(self):
        original = Instance([atom(P, "a")])
        duplicate = original.copy()
        duplicate.add(atom(P, "b"))
        assert len(original) == 1

    def test_replace_value(self):
        inst = Instance([atom(E, Null(0), Null(1)), atom(E, Null(1), "a")])
        inst.replace_value(Null(1), Null(0))
        assert inst == Instance([atom(E, Null(0), Null(0)), atom(E, Null(0), "a")])

    def test_replace_value_merges_atoms(self):
        inst = Instance([atom(P, Null(0)), atom(P, Null(1))])
        inst.replace_value(Null(1), Null(0))
        assert len(inst) == 1

    def test_rename_values(self):
        inst = Instance([atom(E, Null(0), "a")])
        image = inst.rename_values({Null(0): Const("b")})
        assert image == Instance([atom(E, "b", "a")])

    def test_frozen_snapshot(self):
        inst = Instance([atom(P, "a")])
        snapshot = inst.frozen()
        inst.add(atom(P, "b"))
        assert len(snapshot) == 1

    def test_instances_unhashable(self):
        with pytest.raises(TypeError):
            hash(Instance())


class TestIsomorphism:
    def test_equal_instances_isomorphic(self):
        inst = Instance([atom(E, "a", Null(0))])
        assert isomorphic(inst, inst.copy())

    def test_null_renaming(self):
        left = Instance([atom(E, "a", Null(0))])
        right = Instance([atom(E, "a", Null(7))])
        assert isomorphic(left, right)

    def test_constants_fixed(self):
        left = Instance([atom(E, "a", "b")])
        right = Instance([atom(E, "a", "c")])
        assert not isomorphic(left, right)

    def test_different_sizes(self):
        left = Instance([atom(P, Null(0))])
        right = Instance([atom(P, Null(0)), atom(P, Null(1))])
        assert not isomorphic(left, right)

    def test_structure_matters(self):
        left = Instance([atom(E, Null(0), Null(0))])  # a loop
        right = Instance([atom(E, Null(0), Null(1))])  # an edge
        assert not isomorphic(left, right)

    def test_cross_structure(self):
        left = Instance([atom(E, Null(0), Null(1)), atom(E, Null(1), Null(2))])
        right = Instance([atom(E, Null(5), Null(6)), atom(E, Null(6), Null(7))])
        assert isomorphic(left, right)

    def test_canonical_renames_to_low_idents(self):
        inst = Instance([atom(E, Null(100), Null(200))])
        canonical = inst.canonical()
        assert canonical.nulls() == frozenset({Null(0), Null(1)})
        assert isomorphic(inst, canonical)

    @given(instances())
    @settings(max_examples=50, deadline=None)
    def test_canonical_preserves_isomorphism(self, inst):
        assert isomorphic(inst, inst.canonical())

    @given(instances())
    @settings(max_examples=50, deadline=None)
    def test_isomorphism_reflexive(self, inst):
        assert isomorphic(inst, inst.copy())


def _legacy_canonical(instance):
    """The renaming fixpoint ``canonical()`` runs on instances with nulls."""
    history, forms = [], {}
    current = instance
    while True:
        current = current.rename_values(current.canonical_renaming())
        key = tuple(current.sorted_atoms())
        if key in forms:
            start = history.index(key)
            return forms[min(history[start:])]
        history.append(key)
        forms[key] = current


def _internals(instance):
    return (
        instance._atoms,
        instance._by_relation,
        instance._by_position,
        instance._by_tuple,
        instance._null_refs,
    )


def mixed_instances(max_atoms=10):
    return st.lists(
        st.one_of(
            st.tuples(values(), values()).map(lambda pair: Atom(E, pair)),
            st.tuples(values()).map(lambda args: Atom(P, args)),
        ),
        max_size=max_atoms,
    ).map(Instance)


class TestGroundCanonical:
    @given(instances())
    @settings(max_examples=50, deadline=None)
    def test_equals_the_renaming_fixpoint(self, inst):
        ground = Instance(item for item in inst if not item.nulls)
        assert ground.is_ground
        assert ground.canonical() == _legacy_canonical(ground) == ground

    def test_memoized_and_idempotent(self):
        from repro import obs

        inst = Instance([atom(E, "a", "b"), atom(P, "c")])
        form = inst.canonical()
        assert form is not inst
        hits = obs.counter("fingerprint.cache_hits").value
        assert inst.canonical() is form
        assert obs.counter("fingerprint.cache_hits").value == hits + 1
        assert form.canonical() is form
        inst.add(atom(P, "d"))
        assert inst.canonical() is not form

    @given(instances())
    @settings(max_examples=50, deadline=None)
    def test_fingerprints_unchanged(self, inst):
        ground = Instance(item for item in inst if not item.nulls)
        # The digest of the ground form is the digest of the atom set.
        assert ground.fingerprint(canonical=True) == ground.fingerprint()
        assert ground.fingerprint(canonical=True) == _legacy_canonical(
            ground
        ).fingerprint()


def _legacy_token(item):
    """The fp/v1 atom token as it was built before it was cached."""
    parts = [f"{len(item.relation.name)}:{item.relation.name}/{item.relation.arity}"]
    for value in item.args:
        if isinstance(value, Null):
            parts.append(f"n{value.ident}")
        else:
            parts.append(f"c{len(value.name)}:{value.name}")
    return "\x1f".join(parts).encode("utf-8")


def _legacy_fingerprint(instance):
    digest = hashlib.sha256()
    for token in sorted(_legacy_token(item) for item in instance):
        digest.update(token)
        digest.update(b"\x1e")
    return digest.hexdigest()


def _fresh(instance):
    """Equal atoms that share nothing with ``instance``'s (no caches)."""
    return Instance(Atom(item.relation, item.args) for item in instance)


class TestCachedTokens:
    @given(mixed_instances())
    @settings(max_examples=100, deadline=None)
    def test_fingerprint_from_cached_tokens_is_unchanged(self, inst):
        expected = _legacy_fingerprint(inst)
        assert inst.fingerprint() == expected
        # A second instance over the same, now cached, atoms.
        assert inst.copy().fingerprint() == expected
        assert Instance(list(inst)).fingerprint() == expected
        assert _fresh(inst).fingerprint() == expected
        shipped = pickle.loads(pickle.dumps(list(inst)))
        assert Instance(shipped).fingerprint() == expected
        canonical = inst.fingerprint(canonical=True)
        assert canonical == _legacy_fingerprint(inst.canonical())
        assert Instance(list(inst)).fingerprint(canonical=True) == canonical
        assert _fresh(inst).fingerprint(canonical=True) == canonical

    @given(mixed_instances())
    @settings(max_examples=50, deadline=None)
    def test_token_is_cached_per_atom(self, inst):
        for item in inst:
            assert item.token() == _legacy_token(item)
            assert item.token() is item.token()

    def test_getstate_ships_no_cache(self):
        item = Atom(E, (Const("a"), Null(3)))
        state = item.__getstate__()
        before = pickle.dumps(item)
        item.sort_key(), item.token(), item.json_row()
        assert item.__getstate__() == state == (
            None,
            {"relation": E, "args": (Const("a"), Null(3)), "_hash": hash(item)},
        )
        assert pickle.dumps(item) == before
        again = pickle.loads(before)
        assert again == item
        for cache in ("_key", "_token", "_row"):
            assert not hasattr(again, cache)


class TestReductIndexes:
    @given(mixed_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_a_rebuilt_instance(self, inst):
        for schema in (Schema.of(E=2), Schema.of(P=1), Schema.of(E=2, P=1)):
            expected = Instance(
                item for item in inst if item.relation in schema
            )
            reduct = inst.reduct(schema)
            assert _internals(reduct) == _internals(expected)
            # Same iteration orders too, so searches over the reduct run
            # exactly as over the rebuilt instance.
            assert list(reduct) == list(expected)
            for name in expected._by_relation:
                assert list(reduct.probe_relation(name)) == list(
                    expected.probe_relation(name)
                )

    def test_empty_reduct(self):
        inst = Instance([atom(E, "a", Null(0)), atom(P, Null(1))])
        reduct = inst.reduct(Schema.of(Q=1))
        assert _internals(reduct) == _internals(Instance())
        assert reduct.is_ground and not reduct

    def test_reduct_is_independent(self):
        inst = Instance([atom(E, "a", Null(0))])
        reduct = inst.reduct(Schema.of(E=2))
        reduct.add(atom(E, "b", Null(1)))
        assert len(inst) == 1 and inst.nulls() == frozenset({Null(0)})


class TestNullCounts:
    @given(st.lists(st.tuples(st.booleans(), values(), values()), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_track_adds_and_discards(self, script):
        inst = Instance()
        for adding, left, right in script:
            item = Atom(E, (left, right))
            if adding:
                inst.add(item)
            else:
                inst.discard(item)
            expected = frozenset(
                value
                for item in inst
                for value in item.args
                if isinstance(value, Null)
            )
            assert inst.nulls() == expected
            assert inst.null_count() == len(expected)
            assert inst.is_ground == (not expected)
            assert inst.copy().nulls() == expected


class TestAtomsContaining:
    """The position-index lookup finds exactly what a full scan finds."""

    DOMAIN = [Const(f"c{i}") for i in range(4)] + [Null(i) for i in range(4)]

    def assert_matches_scan(self, inst):
        for value in self.DOMAIN:
            expected = {item for item in inst if value in item.args}
            assert inst.atoms_containing(value) == expected

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "discard", "merge"]),
                st.one_of(
                    st.tuples(values(), values()).map(lambda pair: Atom(E, pair)),
                    st.tuples(values()).map(lambda args: Atom(P, args)),
                ),
                values(),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_the_scan_after_edits(self, script):
        inst = Instance()
        for operation, item, value in script:
            if operation == "add":
                inst.add(item)
            elif operation == "discard":
                inst.discard(item)
            else:
                old = item.args[0]
                expected = {
                    other.rename_values({old: value}) for other in inst
                }
                inst.replace_value(old, value)
                assert inst.frozen() == expected
            self.assert_matches_scan(inst)
        self.assert_matches_scan(inst.copy())

    def test_value_at_several_positions(self):
        inst = Instance([atom(E, "a", "a"), atom(E, "a", "b"), atom(P, "a")])
        assert inst.atoms_containing(Const("a")) == set(inst)
        assert inst.atoms_containing(Const("b")) == {atom(E, "a", "b")}
        assert inst.atoms_containing(Const("z")) == set()


class TestFromGround:
    """The trusted bulk constructor builds what ``Instance(atoms)`` builds."""

    @given(
        st.lists(
            st.one_of(
                st.tuples(values(), values()).map(lambda pair: Atom(E, pair)),
                st.tuples(values()).map(lambda args: Atom(P, args)),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_checked_constructor(self, atoms):
        # Duplicates in the input collapse; null counts stay exact.
        built = Instance.from_ground(atoms + atoms[:3])
        expected = Instance(atoms)
        assert _internals(built) == _internals(expected)
        assert list(built) == list(expected)

    def test_result_is_a_fresh_mutable_instance(self):
        atoms = (atom(E, "a", Null(0)), atom(P, Null(0)))
        first = Instance.from_ground(atoms)
        second = Instance.from_ground(atoms)
        first.discard(atoms[0])
        assert second == Instance(atoms)
        assert first.null_count() == 1 and first.nulls() == {Null(0)}


def _eager_copy(instance):
    """The copy as it was before copy-on-write: every bucket cloned now."""
    result = Instance.__new__(Instance)
    result._atoms = set(instance._atoms)
    result._by_relation = {
        name: set(bucket) for name, bucket in instance._by_relation.items()
    }
    result._by_position = {
        key: set(bucket) for key, bucket in instance._by_position.items()
    }
    result._by_tuple = {
        name: set(bucket) for name, bucket in instance._by_tuple.items()
    }
    result._null_refs = dict(instance._null_refs)
    result._fingerprints = {}
    result._canonical_cache = None
    result._shared = None
    return result


def _mixed_atoms():
    return st.one_of(
        st.tuples(values(), values()).map(lambda pair: Atom(E, pair)),
        st.tuples(values()).map(lambda args: Atom(P, args)),
    )


#: How many instances a copy-on-write script keeps alive at once.
POOL = 4


class TestCopyOnWriteIsolation:
    """Copies share index buckets, and no edit ever crosses between them."""

    @given(
        st.lists(_mixed_atoms(), max_size=10),
        st.lists(
            st.tuples(
                st.sampled_from(["copy", "add", "discard", "merge"]),
                st.integers(min_value=0, max_value=POOL - 1),
                st.integers(min_value=0, max_value=POOL - 1),
                _mixed_atoms(),
                values(),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_scripts_match_rebuilt_and_eager_instances(self, atoms, script):
        cow = [Instance(atoms)]
        eager = [Instance(atoms)]
        for _ in range(2):
            cow.append(cow[0].copy())
            eager.append(_eager_copy(eager[0]))
        for operation, target, origin, item, value in script:
            target %= len(cow)
            if operation == "copy":
                made = cow[origin % len(cow)].copy()
                oracle = _eager_copy(eager[origin % len(cow)])
                if len(cow) < POOL:
                    cow.append(made)
                    eager.append(oracle)
                else:
                    cow[target], eager[target] = made, oracle
            for pool in (cow, eager):
                if operation == "add":
                    pool[target].add(item)
                elif operation == "discard":
                    pool[target].discard(item)
                elif operation == "merge":
                    pool[target].replace_value(item.args[0], value)
            for mine, theirs in zip(cow, eager):
                assert mine == theirs
                assert _internals(mine) == _internals(Instance(list(mine)))
                # The atom set is copied as eagerly as before, so every
                # instance iterates in the order the old copy gave.
                assert list(mine) == list(theirs)

    @given(
        st.lists(_mixed_atoms(), max_size=10),
        st.lists(st.tuples(values(), values()), max_size=4),
        st.lists(
            st.tuples(
                st.sampled_from(["copy", "add", "discard", "merge"]),
                st.integers(min_value=0, max_value=POOL - 1),
                st.integers(min_value=0, max_value=POOL - 1),
                _mixed_atoms(),
                values(),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_scripts_from_bulk_built_starts(self, atoms, dropped, script):
        """Instances built by ``from_ground`` and ``reduct`` index their
        atoms without ``add``, and copy and write like any other."""
        wider = Instance(atoms + [Atom(Q, pair) for pair in dropped])
        cow = [
            Instance(atoms),
            Instance.from_ground(atoms),
            wider.reduct(Schema.of(E=2, P=1)),
        ]
        # A reduct inserts in the wider instance's iteration order.
        eager = [
            Instance(atoms),
            Instance(atoms),
            Instance(item for item in wider if item.relation != Q),
        ]
        cow.append(cow[1].copy())
        eager.append(_eager_copy(eager[1]))
        for operation, target, origin, item, value in script:
            if operation == "copy":
                cow[target] = cow[origin].copy()
                eager[target] = _eager_copy(eager[origin])
            for pool in (cow, eager):
                if operation == "add":
                    pool[target].add(item)
                elif operation == "discard":
                    pool[target].discard(item)
                elif operation == "merge":
                    pool[target].replace_value(item.args[0], value)
            for mine, theirs in zip(cow, eager):
                assert mine == theirs
                assert _internals(mine) == _internals(Instance(list(mine)))
                assert list(mine) == list(theirs)

    def test_a_write_clones_only_the_buckets_it_touches(self):
        a = Instance(
            [
                atom(E, "a", "b"),
                atom(E, "a", Null(0)),
                atom(E, "c", "b"),
                atom(P, "a"),
                atom(P, Null(0)),
            ]
        )
        view = a.probe_position("E", 0, Const("a"))
        seen = list(view)
        b = a.copy()
        x = atom(E, "a", "d")
        assert b.add(x)
        touched = {
            "relation": {"E"},
            "position": {("E", 0, Const("a")), ("E", 1, Const("d"))},
            "tuple": {"E"},
        }
        for kind, mine, theirs in (
            ("relation", a._by_relation, b._by_relation),
            ("position", a._by_position, b._by_position),
            ("tuple", a._by_tuple, b._by_tuple),
        ):
            for key, bucket in mine.items():
                assert (theirs[key] is bucket) == (key not in touched[kind])
        assert ("E", 1, Const("d")) not in a._by_position
        # The view taken from ``a`` before the copy is ``a``'s bucket, and
        # the copy's write went to a clone of it.
        assert list(view) == seen and x not in view
        assert a.probe_position("E", 0, Const("a")) is view
        assert x in b.probe_position("E", 0, Const("a"))
        assert _internals(a) == _internals(Instance(list(a)))
        assert _internals(b) == _internals(Instance(list(b)))

    def test_the_original_clones_on_its_first_write_too(self):
        a = Instance([atom(E, "a", "b"), atom(P, "a")])
        b = a.copy()
        shared = b.probe_relation("E")
        a.discard(atom(E, "a", "b"))
        assert b.probe_relation("E") is shared
        assert list(shared) == [atom(E, "a", "b")]
        assert not a.atoms_of(E) and b.atoms_of(E) == {atom(E, "a", "b")}
        assert _internals(a) == _internals(Instance(list(a)))


def test_the_core_subpackage_is_importable_by_its_dotted_path():
    """``repro`` exports no name that shadows its ``core`` subpackage,
    so ``import repro.core.instance as m`` resolves the submodule."""
    import os
    import subprocess
    import sys

    import repro

    probe = (
        "import repro, repro.core.instance as m\n"
        "assert m.Instance is repro.Instance\n"
        "assert m.isomorphic is repro.core.instance.isomorphic\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )

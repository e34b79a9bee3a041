"""Determinism of the engine fingerprints.

The result cache is only sound if a key never depends on anything but
the *content* of the inputs: not on ``PYTHONHASHSEED``, not on atom
insertion order, not on the names chosen for nulls or dependencies.
"""

import subprocess
import sys

import pytest

from repro.core import Atom, Const, Instance, Null, RelationSymbol
from repro.engine import (
    answer_key,
    fingerprint_answers,
    fingerprint_dependency,
    fingerprint_instance,
    fingerprint_query,
    fingerprint_schema,
    fingerprint_setting,
    solve_key,
)
from repro.generators.settings_library import (
    example_2_1_setting,
    example_2_1_source,
)
from repro.dependencies.base import parse_dependency
from repro.logic import parse_query

E = RelationSymbol("E", 2)
F = RelationSymbol("F", 2)

_SUBPROCESS_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.engine import fingerprint_instance, fingerprint_setting, solve_key
from repro.generators.settings_library import (
    example_2_1_setting, example_2_1_source,
)
setting = example_2_1_setting()
source = example_2_1_source()
print(fingerprint_setting(setting))
print(fingerprint_instance(source))
print(solve_key(setting, source, max_steps=1000, engine="standard",
                core_algorithm="blockwise"))
"""


def _digests_under_hash_seed(seed: str):
    import repro

    src_dir = repro.__file__.rsplit("/repro/", 1)[0]
    completed = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT.format(src=src_dir)],
        capture_output=True,
        text=True,
        env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
        check=True,
    )
    return completed.stdout.splitlines()


class TestHashSeedIndependence:
    def test_digests_identical_across_hash_seeds(self):
        first = _digests_under_hash_seed("0")
        second = _digests_under_hash_seed("424242")
        assert first == second
        assert len(first) == 3 and all(first)


class TestInstanceFingerprint:
    def test_insertion_order_irrelevant(self):
        atoms = [
            Atom(E, (Const("a"), Const("b"))),
            Atom(E, (Const("b"), Const("c"))),
            Atom(F, (Const("a"), Null(0))),
        ]
        forward = Instance(atoms)
        backward = Instance(list(reversed(atoms)))
        assert forward.fingerprint() == backward.fingerprint()
        assert fingerprint_instance(forward) == fingerprint_instance(backward)

    def test_isomorphic_renamings_coincide_canonically(self):
        left = Instance(
            [Atom(E, (Const("a"), Null(0))), Atom(F, (Null(0), Null(1)))]
        )
        right = Instance(
            [Atom(E, (Const("a"), Null(7))), Atom(F, (Null(7), Null(3)))]
        )
        assert left.fingerprint(canonical=True) == right.fingerprint(
            canonical=True
        )
        assert fingerprint_instance(left) == fingerprint_instance(right)

    def test_exact_mode_distinguishes_renamings(self):
        left = Instance([Atom(E, (Const("a"), Null(0)))])
        right = Instance([Atom(E, (Const("a"), Null(1)))])
        assert left.fingerprint() != right.fingerprint()

    def test_different_content_differs(self):
        left = Instance([Atom(E, (Const("a"), Const("b")))])
        right = Instance([Atom(E, (Const("a"), Const("c")))])
        assert fingerprint_instance(left) != fingerprint_instance(right)

    def test_constant_and_null_never_collide(self):
        # A constant literally named "n0" must not hash like Null(0).
        left = Instance([Atom(E, (Const("n0"), Const("x")))])
        right = Instance([Atom(E, (Null(0), Const("x")))])
        assert left.fingerprint() != right.fingerprint()


class TestSchemaAndDependencyFingerprints:
    def test_schema_digest_is_structural(self):
        setting = example_2_1_setting()
        assert fingerprint_schema(setting.source_schema) != fingerprint_schema(
            setting.target_schema
        )

    def test_dependency_name_does_not_matter(self):
        joint = example_2_1_setting().joint_schema
        named = parse_dependency("M(x, y) -> E(x, y)", joint)
        named.name = "st1"
        renamed = parse_dependency("M(x, y) -> E(x, y)", joint)
        renamed.name = "zzz"
        assert fingerprint_dependency(named) == fingerprint_dependency(renamed)

    def test_dependency_structure_does_matter(self):
        joint = example_2_1_setting().joint_schema
        one = parse_dependency("M(x, y) -> E(x, y)", joint)
        other = parse_dependency("M(x, y) -> E(y, x)", joint)
        assert fingerprint_dependency(one) != fingerprint_dependency(other)

    def test_egd_fingerprint(self):
        joint = example_2_1_setting().joint_schema
        egd = parse_dependency("F(x, y) & F(x, z) -> y = z", joint)
        same = parse_dependency("F(x, y) & F(x, z) -> y = z", joint)
        assert fingerprint_dependency(egd) == fingerprint_dependency(same)


class TestQueryAndKeyFingerprints:
    def test_query_digest_distinguishes_heads(self):
        one = parse_query("Q(x) :- E(x, y)")
        other = parse_query("Q(y) :- E(x, y)")
        assert fingerprint_query(one) != fingerprint_query(other)

    def test_ucq_digest(self):
        ucq = parse_query("Q(x) :- E(x, y) ; Q(x) :- F(x, y)")
        again = parse_query("Q(x) :- E(x, y) ; Q(x) :- F(x, y)")
        assert fingerprint_query(ucq) == fingerprint_query(again)

    def test_solve_key_sensitive_to_options(self):
        setting = example_2_1_setting()
        source = example_2_1_source()
        base = solve_key(
            setting, source, max_steps=100, engine="standard",
            core_algorithm="blockwise",
        )
        assert base != solve_key(
            setting, source, max_steps=200, engine="standard",
            core_algorithm="blockwise",
        )
        assert base != solve_key(
            setting, source, max_steps=100, engine="seminaive",
            core_algorithm="blockwise",
        )

    def test_answer_key_sensitive_to_semantics_and_space(self):
        setting = example_2_1_setting()
        source = example_2_1_source()
        query = parse_query("Q(x) :- E(x, y)")
        certain = answer_key(setting, source, query, "certain")
        maybe = answer_key(setting, source, query, "maybe")
        assert certain != maybe
        spaced = answer_key(
            setting, source, query, "certain",
            solutions=[Instance([Atom(E, (Const("a"), Const("b")))])],
        )
        assert spaced != certain

    def test_answer_set_digest_order_independent(self):
        rows = [(Const("a"), Const("b")), (Const("c"), Null(2))]
        assert fingerprint_answers(rows) == fingerprint_answers(
            list(reversed(rows))
        )


#: fp/v1 digests of Example 2.1's setting, two queries over its target
#: schema (variables, a constant, an inequality) and their ``certain``
#: answer keys.  A change to the cell or atom encoding moves them, and
#: every on-disk cache key with them.
GOLDEN_SETTING = (
    "a90383db15fc73bac97e21dfa7e9d104a138d6628cadc13f6863138c0c2ba0b0"
)
GOLDEN_QUERIES = {
    "Q(x,y) :- E(x,y)": (
        "25e415387d79a6f5a5e1e9b9635af88bb984f9351a619a091198eca77d9e2c28",
        "890e67f9c3269e589057b0b4ea4eceda0a43da9ab5028107fddd77abfcc47c29",
    ),
    "Q(x) :- F(x,z) & G(z,'b') & x != 'a'": (
        "a7a6654e52769c20f7ada1b37fceb18703c1e816a3d9fc52a122d64e732e0f35",
        "04d93b9c96d70c66b0b50de20d4af34281e6ade8d2f0cb80c873846c82df0c0e",
    ),
}


class TestGoldenDigests:
    def test_example_2_1_setting(self):
        assert fingerprint_setting(example_2_1_setting()) == GOLDEN_SETTING

    @pytest.mark.parametrize("text", sorted(GOLDEN_QUERIES))
    def test_example_2_1_queries_and_answer_keys(self, text):
        setting = example_2_1_setting()
        query = parse_query(text, setting.target_schema)
        digest, key = GOLDEN_QUERIES[text]
        assert fingerprint_query(query) == digest
        assert answer_key(setting, example_2_1_source(), query, "certain") == key

    def test_answer_rows(self):
        rows = {(Const("a"), Null(3)), (Const("b"), Const("c"))}
        assert fingerprint_answers(rows) == (
            "03d3437258ca8cbebe59b7f946eb77a6b59ec8c4c3e55c9cb75b4488aa29f8ea"
        )

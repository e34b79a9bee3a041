"""The default ``solve`` (semi-naive) agrees with the full-scan engine.

Over random weakly acyclic settings with egds and random sources, the
default ``solve`` and ``solve(engine="standard")`` reach the same
verdict, and their cores have the same fp/v1 fingerprint; the default's
canonical solution, together with the source, satisfies every
dependency.  The library generator writes one-atom premises only, so a
second family joins two atoms per premise, recursively within a level:
it reaches the semi-naive engine's full scans and seeded joins.
Trigger order follows set iteration order, which follows the string
hash seed, so CI runs this suite under several seeds.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase import satisfies_all
from repro.core.instance import isomorphic
from repro.core.schema import Schema
from repro.engine import fingerprint_instance
from repro.exchange import DataExchangeSetting, solve
from repro.generators import random_source_for, random_weakly_acyclic_setting


def assert_engines_agree(setting, source, same_core):
    default = solve(setting, source)
    standard = solve(setting, source, engine="standard")
    assert default.cwa_solution_exists == standard.cwa_solution_exists
    if not default.cwa_solution_exists:
        return
    assert same_core(default.core_solution, standard.core_solution)
    assert satisfies_all(
        source.union(default.canonical_solution), setting.all_dependencies
    )


def same_fingerprint(left, right):
    return fingerprint_instance(left) == fingerprint_instance(right)


def join_setting(seed, levels=3, width=2):
    """Two-atom premises ``A(x, y) & B(y, z)`` over levelled relations.

    Full tgds conclude on their premise's level or above (recursion
    within a level is allowed); existential tgds conclude strictly
    above their premise relations, so the setting is weakly acyclic.
    Each relation gets a key egd with probability one half.
    """
    rng = random.Random(seed)
    names = [[f"T{level}_{i}" for i in range(width)] for level in range(levels)]
    st_lines = [
        f"S{i}(x, y) -> {rng.choice(names[0])}(x, y)"
        if rng.random() < 0.5
        else f"S{i}(x, y) -> exists w . {rng.choice(names[0])}(x, w)"
        for i in range(2)
    ]
    target_lines = []
    for level in range(levels):
        upto = [name for row in names[: level + 1] for name in row]
        below = [name for row in names[:level] for name in row]
        for _ in range(width):
            conclusion = rng.choice(names[level])
            if below and rng.random() < 0.5:
                left, right = rng.choice(below), rng.choice(below)
                target_lines.append(
                    f"{left}(x, y) & {right}(y, z) -> exists w . {conclusion}(x, w)"
                )
            else:
                left, right = rng.choice(upto), rng.choice(upto)
                target_lines.append(
                    f"{left}(x, y) & {right}(y, z) -> {conclusion}(x, z)"
                )
    for name in (name for row in names for name in row):
        if rng.random() < 0.5:
            target_lines.append(f"{name}(x, y) & {name}(x, z) -> y = z")
    setting = DataExchangeSetting.from_strings(
        Schema.of(S0=2, S1=2),
        Schema.from_mapping({name: 2 for row in names for name in row}),
        st_lines,
        target_lines,
    )
    assert setting.is_weakly_acyclic
    return setting


@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_default_solve_matches_the_standard_engine(seed, atoms):
    setting = random_weakly_acyclic_setting(seed, egd_probability=0.5)
    source = random_source_for(
        setting, seed, atoms_per_relation=atoms, domain_size=3
    )
    assert_engines_agree(setting, source, same_fingerprint)


@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_join_premises_match_the_standard_engine(seed, atoms):
    setting = join_setting(seed)
    source = random_source_for(
        setting, seed, atoms_per_relation=atoms, domain_size=4
    )
    # The engines may name these nulls in different orders, and fp/v1's
    # canonical form, a fixpoint of sort-and-rename rounds, can tell
    # such isomorphic cores apart; so this family compares by isomorphism.
    assert_engines_agree(setting, source, isomorphic)

"""The solution-space kernels against the definitions they shortcut.

``enumerate_cwa_solutions`` cuts a witness choice before cloning its
branch when one of its atoms has no single-atom image in the canonical
solution, and keeps only the target part in its states.  The world walk
(:func:`repro.answering.valuations.rep` and ``certain_and_maybe_on``)
tests each world only against the dependencies a valuation can break,
once the target satisfies its valuation-stable ones.  Each test here
compares a kernel with the plain definition: every presolution filtered
by a homomorphism into the canonical solution, and a walk that checks
every world against all of Σ_t.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.answering.valuations import (
    _pool,
    _pool_extras,
    canonical_witnesses,
    certain_and_maybe_on,
    rep,
    valuation_stable,
    valuations,
)
from repro.chase.satisfaction import satisfies_all
from repro.core import Instance, isomorphic
from repro.core.errors import ChaseDivergence
from repro.cwa import enumerate_cwa_presolutions, enumerate_cwa_solutions
from repro.dependencies import parse_dependency
from repro.generators import random_source_for, random_weakly_acyclic_setting
from repro.generators.settings_library import (
    example_2_1_setting,
    example_2_1_source,
    example_5_3_setting,
    example_5_3_source,
)
from repro.homomorphism.search import has_homomorphism
from repro.logic import parse_instance, parse_query

#: The unpruned enumeration's atom budget: every draw of
#: ``random_weakly_acyclic_setting(levels=2)`` with one atom per source
#: relation stays below it; a draw that hits it is skipped.
PRESOLUTION_ATOMS = 16

#: The unpruned enumeration's result cap.  Uncapped, ``_draw(3080)``
#: (one CWA-solution) runs for minutes before its space is exhausted;
#: capped here it stops within a second, and the draw is skipped.
PRESOLUTION_RESULTS = 500

#: Solutions with more nulls than this are not walked (the valuation
#: count grows like a Bell number).
MAX_WALK_NULLS = 4

#: Target dependencies added to a drawn setting's Σ_t for the walk, over
#: the relations every two-level random setting has.  The first three
#: are not valuation-stable (a repeated variable, a constant, a
#: two-atom premise); the last two are, and a drawn solution often
#: violates them, which sends its walk down the full-check path.
EXTRA_DEPENDENCIES = (
    "T0_0(x, x) -> exists z . T1_0(x, z)",
    "T0_0(x, 'c0') -> T1_1(x, x)",
    "T0_0(x, y) & T0_1(y, z) -> T1_0(x, z)",
    "T1_0(x, y) -> x = y",
    "T1_1(x, y) -> exists z . T0_0(y, z)",
)

QUERY_SHAPES = ("Q(x) :- {r}(x, y)", "Q(x, y) :- {r}(x, y)", "Q() :- {r}(x, x)")


def _draw(seed):
    setting = random_weakly_acyclic_setting(seed, levels=2)
    source = random_source_for(
        setting, seed=seed, atoms_per_relation=1, domain_size=3
    )
    return setting, source


def _same_up_to_isomorphism(left, right) -> bool:
    """Both lists hold pairwise non-isomorphic instances: equal as
    isomorphism classes iff equally long and each left one has a right
    partner."""
    return len(left) == len(right) and all(
        any(isomorphic(item, other) for other in right) for item in left
    )


def _reference_walk(query, target, dependencies):
    """``(□Q(T), ◇Q(T))`` with every world checked against all of Σ_t:
    the walk as it was before the valuation-stable skip."""
    extras = _pool_extras(query, dependencies, ())
    box = None
    diamond = set()
    for valuation in valuations(target, extras):
        image = Instance(item.rename_values(valuation) for item in target)
        if not satisfies_all(image, dependencies):
            continue
        result = query.evaluate(image)
        box = set(result) if box is None else box & result
        diamond |= result
    certain = frozenset(box or ())
    if diamond and target.nulls():
        return certain, canonical_witnesses(
            diamond, _pool(target, extras, None)[1]
        )
    return certain, frozenset(diamond)


def _full_rep(target, dependencies):
    """Rep_D(T) by its definition: every image that satisfies Σ_t."""
    images = (target.rename_values(v) for v in valuations(target))
    return [image for image in images if satisfies_all(image, dependencies)]


class TestValuationStable:
    @pytest.mark.parametrize(
        "text, stable",
        [
            ("F(y, x) -> exists z . G(x, z)", True),
            ("F(x, y) -> x = y", True),
            ("F(x, y) -> G(x, 'c')", True),
            ("F(x, x) -> exists z . G(x, z)", False),
            ("F('c', y) -> G(y, y)", False),
            ("F(x, y) & F(x, z) -> y = z", False),
            ("F(x, y) & G(y, z) -> G(x, z)", False),
        ],
    )
    def test_classification(self, text, stable):
        assert valuation_stable(parse_dependency(text)) is stable


class TestOneWorldTest:
    """``rep`` yields exactly the images a full Σ_t check keeps."""

    @pytest.mark.parametrize("example", ["2.1", "5.3"])
    def test_paper_solutions(self, example):
        setting, source = (
            (example_2_1_setting(), example_2_1_source())
            if example == "2.1"
            else (example_5_3_setting(), example_5_3_source(1))
        )
        dependencies = setting.target_dependencies
        for solution in enumerate_cwa_solutions(setting, source):
            assert list(rep(solution, dependencies)) == _full_rep(
                solution, dependencies
            )

    def test_target_violating_a_stable_dependency(self):
        # T breaks both dependencies, and both are valuation-stable:
        # F(#1, #2) the egd, G(#2, #3) the tgd (no E-atom starts with
        # #2).  Only the worlds that send #1 and #2 to 'a' satisfy
        # both, so every world must be checked against all of Σ_t.
        target = parse_instance("F(#1, #2), F('a', #1), G(#2, #3), E('a', 'a')")
        dependencies = [
            parse_dependency("F(x, y) -> x = y"),
            parse_dependency("G(x, y) -> exists z . E(x, z)"),
        ]
        assert not satisfies_all(target, dependencies[:1])
        worlds = list(rep(target, dependencies))
        assert worlds == _full_rep(target, dependencies)
        assert 0 < len(worlds) < sum(1 for _ in valuations(target))


def _enumerate_or_skip(setting, source):
    """The unpruned presolution space, or None when the draw is skipped:
    its chase hits :data:`PRESOLUTION_ATOMS`, or the list reaches
    :data:`PRESOLUTION_RESULTS` and may be cut short."""
    try:
        found = enumerate_cwa_presolutions(
            setting,
            source,
            max_atoms=PRESOLUTION_ATOMS,
            max_results=PRESOLUTION_RESULTS,
        )
    except ChaseDivergence:
        return None
    return None if len(found) >= PRESOLUTION_RESULTS else found


class TestDifferential:
    def test_example_5_3_equals_filtered_presolutions(self):
        # Its witnesses repeat nulls inside atoms (F(1, #1, #1)), which
        # the prefilter must map onto repeated values.
        setting, source = example_5_3_setting(), example_5_3_source(1)
        canonical = setting.canonical_universal_solution(source)
        universal = [
            candidate
            for candidate in _enumerate_or_skip(setting, source)
            if has_homomorphism(candidate, canonical)
        ]
        solutions = enumerate_cwa_solutions(setting, source)
        assert len(solutions) == 4
        assert _same_up_to_isomorphism(solutions, universal)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_pruned_enumeration_equals_filtered_presolutions(self, seed):
        setting, source = _draw(seed)
        solutions = enumerate_cwa_solutions(setting, source)
        canonical = setting.canonical_universal_solution(source)
        if canonical is None:
            assert solutions == []
            return
        presolutions = _enumerate_or_skip(setting, source)
        if presolutions is None:
            return
        universal = [
            candidate
            for candidate in presolutions
            if has_homomorphism(candidate, canonical)
        ]
        assert _same_up_to_isomorphism(solutions, universal)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        extras=st.lists(
            st.booleans(),
            min_size=len(EXTRA_DEPENDENCIES),
            max_size=len(EXTRA_DEPENDENCIES),
        ),
    )
    def test_walk_equals_full_check_walk(self, seed, extras):
        setting, source = _draw(seed)
        schema = setting.target_schema
        dependencies = list(setting.target_dependencies) + [
            parse_dependency(text, schema)
            for text, chosen in zip(EXTRA_DEPENDENCIES, extras)
            if chosen
        ]
        queries = [
            parse_query(shape.format(r=relation.name), schema)
            for relation in schema
            for shape in QUERY_SHAPES
        ]
        for solution in enumerate_cwa_solutions(setting, source):
            if len(solution.nulls()) > MAX_WALK_NULLS:
                continue
            for query in queries:
                assert certain_and_maybe_on(
                    query, solution, dependencies
                ) == _reference_walk(query, solution, dependencies), query

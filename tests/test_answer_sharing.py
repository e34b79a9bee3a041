"""``all_four_semantics`` computes each shared input once.

The four Section 7 semantics read two objects: the core (certain□,
maybe□) and the CWA-solution space (certain◇, maybe◇).  These tests pin
that the one-pass computation answers exactly what the four
single-semantics functions answer, that the answer cache sees the same
four entries, and that the chase, the core and the space are each
computed once.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.answering.semantics as semantics
import repro.cwa.enumeration as enumeration
import repro.obs as obs
from itertools import product

from repro.answering import (
    AnswerLanguage,
    all_four_semantics,
    certain_answers,
    maybe_answers,
    persistent_maybe_answers,
    potential_certain_answers,
)
from repro.answering.semantics import _cached_answers
from repro.core.terms import Const
from repro.cwa.enumeration import enumerate_cwa_solutions
from repro.engine import ResultCache
from repro.engine.fingerprint import answer_key
from repro.generators import random_source_for, random_weakly_acyclic_setting
from repro.generators.settings_library import (
    egd_only_setting,
    example_2_1_setting,
    example_2_1_source,
    example_5_3_setting,
    example_5_3_source,
    full_tgd_setting,
)
from repro.logic import parse_instance, parse_query

SEMANTICS = ("certain", "potential_certain", "persistent_maybe", "maybe")


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.reset()
    yield
    obs.reset()


def _singles(setting, source, query, solutions=None):
    """The four verdicts, each from its own single-semantics function."""
    return {
        "certain": certain_answers(setting, source, query),
        "potential_certain": potential_certain_answers(
            setting, source, query, solutions=solutions
        ),
        "persistent_maybe": persistent_maybe_answers(setting, source, query),
        "maybe": maybe_answers(setting, source, query, solutions=solutions),
    }


def _case(name):
    if name == "2.1":
        return example_2_1_setting(), example_2_1_source(), [
            "Q(x) :- E(x, y)",
            "Q(x, y) :- E(x, y)",
            "Q(x) :- E(x, y) & F(y, z)",
            "Q(x, y) :- G(x, y)",
        ]
    if name == "5.3/n=1":
        return example_5_3_setting(), example_5_3_source(1), [
            "Q(x) :- E(x, y, z)",
            "Q(x, y) :- F(x, y, y)",
            "Q(x, y, z) :- F(x, y, z)",
        ]
    if name == "5.3/n=2":
        return example_5_3_setting(), example_5_3_source(2), [
            "Q(x, y) :- F(x, y, y)",
            "Q(x) :- E(x, y, z)",
        ]
    if name == "egds-only":
        return egd_only_setting(), parse_instance(
            "Emp('e1','d1'), Emp('e2','d1'), Emp('e3','d2')"
        ), ["Q(d, m) :- Dept(d, m)", "Q(d) :- Dept(d, m)"]
    assert name == "full+egd"
    return full_tgd_setting(), parse_instance(
        "Edge('a','b'), Edge('b','c'), Edge('d','e'), Start('a')"
    ), ["Q(x) :- Reach(x)", "Q(x, y) :- Link(x, y) & Reach(y)"]


#: Cases whose whole CWA-solution space is cheap to walk.  Example 5.3
#: with n = 2 has 16 CWA-solutions with up to 8 nulls each, and one walk
#: over all their worlds takes about 36 s on a 2-core x86 VM, so that
#: case answers over an explicit part of its space (see :func:`_space`).
CASES = ("2.1", "5.3/n=1", "egds-only", "full+egd")
SPACE_CASES = CASES + ("5.3/n=2",)

#: Members of a space with more nulls than this are left out of
#: explicit spaces (the valuation count grows like a Bell number).
MAX_SPACE_NULLS = 5


def _space(setting, source):
    """The enumerated space, less its members with many nulls."""
    return [
        solution
        for solution in enumerate_cwa_solutions(setting, source)
        if len(solution.nulls()) <= MAX_SPACE_NULLS
    ]


class TestParity:
    @pytest.mark.parametrize("name", CASES)
    def test_matches_single_semantics(self, name):
        setting, source, queries = _case(name)
        for text in queries:
            query = parse_query(text, setting.target_schema)
            assert all_four_semantics(setting, source, query) == _singles(
                setting, source, query
            ), text

    @pytest.mark.parametrize("name", SPACE_CASES)
    def test_matches_over_explicit_space(self, name):
        setting, source, queries = _case(name)
        space = _space(setting, source)
        for text in queries:
            query = parse_query(text, setting.target_schema)
            shared = all_four_semantics(
                setting, source, query, solutions=space
            )
            assert shared == _singles(
                setting, source, query, solutions=space
            ), text

    @pytest.mark.parametrize("name", CASES)
    def test_whole_space_equals_fast_paths(self, name):
        setting, source, queries = _case(name)
        space = enumerate_cwa_solutions(setting, source)
        query = parse_query(queries[0], setting.target_schema)
        assert all_four_semantics(
            setting, source, query, solutions=space
        ) == all_four_semantics(setting, source, query)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        relation=st.integers(min_value=0, max_value=3),
        shape=st.sampled_from(
            ["Q(x) :- {r}(x, y)", "Q(x, y) :- {r}(x, y)", "Q() :- {r}(x, x)"]
        ),
    )
    def test_random_weakly_acyclic(self, seed, relation, shape):
        # Two levels and one atom per source relation keep every
        # enumeration and world walk in the millisecond range.
        setting = random_weakly_acyclic_setting(seed, levels=2)
        source = random_source_for(
            setting, seed=seed, atoms_per_relation=1, domain_size=3
        )
        name = f"T{relation // 2}_{relation % 2}"
        query = parse_query(shape.format(r=name), setting.target_schema)
        if setting.canonical_universal_solution(source) is None:
            with pytest.raises(semantics.NoCwaSolutionError):
                all_four_semantics(setting, source, query)
            return
        shared = all_four_semantics(setting, source, query)
        assert shared == _singles(setting, source, query)
        assert (
            shared["certain"]
            <= shared["potential_certain"]
            <= shared["persistent_maybe"]
            <= shared["maybe"]
        )


class TestMembership:
    """``AnswerLanguage`` reads the same solutions as the answer sets."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        relation=st.integers(min_value=0, max_value=3),
        shape=st.sampled_from(
            ["Q(x) :- {r}(x, y)", "Q(x, y) :- {r}(x, y)", "Q() :- {r}(x, x)"]
        ),
    )
    def test_language_agrees_with_answer_sets(self, seed, relation, shape):
        setting = random_weakly_acyclic_setting(seed, levels=2)
        source = random_source_for(
            setting, seed=seed, atoms_per_relation=1, domain_size=3
        )
        name = f"T{relation // 2}_{relation % 2}"
        query = parse_query(shape.format(r=name), setting.target_schema)
        singles = (
            certain_answers,
            potential_certain_answers,
            persistent_maybe_answers,
            maybe_answers,
        )
        canonical = setting.canonical_universal_solution(source)
        if canonical is None:
            for semantics_name in SEMANTICS:
                with pytest.raises(semantics.NoCwaSolutionError):
                    AnswerLanguage(setting, query, semantics_name)(
                        source, (Const("a"),) * query.arity
                    )
            return
        # The source constants every CWA-solution holds.  A ◇ answer set
        # reports any other constant as a generic witness (a fresh
        # constant), while membership anchors the tuple's own constants.
        constants = sorted(set(source.constants()) & set(canonical.constants()))
        for semantics_name, single in zip(SEMANTICS, singles):
            answers = single(setting, source, query)
            language = AnswerLanguage(setting, query, semantics_name)
            for answer in product(constants, repeat=query.arity):
                assert language(source, answer) == (answer in answers), (
                    semantics_name,
                    answer,
                )


class _Calls:
    """Counts calls of a wrapped function."""

    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, *args, **kwargs):
        self.count += 1
        return self.fn(*args, **kwargs)


@pytest.fixture
def calls(monkeypatch):
    """Count the answering layer's ``solve``, ``blockwise_core`` and
    ``cansol`` calls, and every enumeration of a presolution space by
    any route (``enumerate_cwa_solutions`` and
    ``enumerate_cwa_solutions_into`` both call
    ``enumerate_cwa_presolutions``)."""
    found = {}
    for module, name in (
        (semantics, "solve"),
        (semantics, "blockwise_core"),
        (semantics, "cansol"),
        (enumeration, "enumerate_cwa_presolutions"),
    ):
        wrapper = _Calls(getattr(module, name))
        monkeypatch.setattr(module, name, wrapper)
        found[name] = wrapper
    return found


def _span_count(name: str) -> int:
    """How often a span named ``name`` ran, under any parent span: every
    chase a call makes, by any route, opens one ``solve`` span."""
    return sum(
        entry["count"]
        for path, entry in obs.snapshot()["spans"].items()
        if path.split("/")[-1] == name
    )


class TestWorkBound:
    def test_example_2_1_computes_core_and_space_once(self, calls):
        """One chase serves both halves: the core half folds its
        canonical solution, the enumeration prunes into it."""
        query = parse_query("Q(x) :- E(x, y)")
        for made in (1, 2):
            all_four_semantics(
                example_2_1_setting(), example_2_1_source(), query
            )
            assert calls["solve"].count == made
            assert _span_count("solve") == made
            assert calls["blockwise_core"].count == made
            assert calls["enumerate_cwa_presolutions"].count == made
            assert obs.snapshot()["counters"]["chase.tgd_firings"] == 3 * made
        assert calls["cansol"].count == 0

    def test_cansol_path_computes_cansol_once(self, calls):
        """For the full-tgd-and-egd class CanSol is the canonical
        solution of the call's one chase: no second chase, no
        ``cansol``."""
        setting, source, queries = _case("full+egd")
        one_chase = _tgd_firings_of(setting, source)
        obs.reset()
        all_four_semantics(setting, source, parse_query(queries[0]))
        assert calls["cansol"].count == 0
        assert calls["solve"].count == 1
        assert _span_count("solve") == 1
        assert calls["enumerate_cwa_presolutions"].count == 0
        assert _tgd_firings() == one_chase

    def test_egds_only_cansol_is_built_once(self, calls):
        setting, source, queries = _case("egds-only")
        all_four_semantics(setting, source, parse_query(queries[0]))
        assert calls["cansol"].count == 1
        assert calls["solve"].count == 1
        assert calls["enumerate_cwa_presolutions"].count == 0

    def test_explicit_space_is_not_enumerated(self, calls):
        setting, source = example_2_1_setting(), example_2_1_source()
        space = enumerate_cwa_solutions(setting, source)
        calls["enumerate_cwa_presolutions"].count = 0
        obs.reset()
        all_four_semantics(
            setting, source, parse_query("Q(x) :- E(x, y)"), solutions=space
        )
        assert calls["enumerate_cwa_presolutions"].count == 0
        assert calls["solve"].count == 1
        assert _span_count("solve") == 1

    @pytest.mark.parametrize("name", SEMANTICS)
    def test_membership_call_chases_once(self, calls, name):
        language = AnswerLanguage(
            example_2_1_setting(), parse_query("Q(x) :- E(x, y)"), name
        )
        language(example_2_1_source(), (Const("a"),))
        assert calls["solve"].count == 1
        assert _span_count("solve") == 1

    def test_one_walk_per_world(self):
        setting, source = example_2_1_setting(), example_2_1_source()
        query = parse_query("Q(x) :- E(x, y)")
        _singles(setting, source, query)
        separate = obs.snapshot()["counters"]
        obs.reset()
        all_four_semantics(setting, source, query)
        shared = obs.snapshot()["counters"]
        for name in (
            "answering.valuations_enumerated",
            "answering.worlds_visited",
        ):
            assert 2 * shared[name] == separate[name], name
        # The four single functions chase four times, the shared call once.
        assert 4 * shared["chase.tgd_firings"] == separate["chase.tgd_firings"]


def _space_worlds(setting, source) -> int:
    """The worlds of every enumerated CWA-solution (the space half's walk)."""
    from repro.answering.valuations import rep

    return sum(
        sum(1 for _ in rep(solution, setting.target_dependencies))
        for solution in enumerate_cwa_solutions(setting, source)
    )


def _tgd_firings() -> int:
    return obs.snapshot()["counters"].get("chase.tgd_firings", 0)


def _tgd_firings_of(setting, source) -> int:
    """The tgd firings of one ``solve`` of ``source``."""
    from repro.exchange.solve import solve

    obs.reset()
    solve(setting, source)
    return _tgd_firings()


class TestCache:
    def _keys(self, setting, source, query):
        return {
            name: answer_key(setting, source, query, name)
            for name in SEMANTICS
        }

    def test_cold_cache_fills_all_four_entries(self, tmp_path):
        setting, source = example_2_1_setting(), example_2_1_source()
        query = parse_query("Q(x) :- E(x, y)")
        cache = ResultCache(tmp_path)
        answers = all_four_semantics(setting, source, query, cache=cache)
        assert answers == _singles(setting, source, query)
        for name, key in self._keys(setting, source, query).items():
            assert cache.get("answers", key) is not None, name

    def test_warm_call_runs_no_chase(self, tmp_path, calls):
        setting, source = example_2_1_setting(), example_2_1_source()
        query = parse_query("Q(x) :- E(x, y)")
        cache = ResultCache(tmp_path)
        cold = all_four_semantics(setting, source, query, cache=cache)
        before = _tgd_firings()
        warm = all_four_semantics(setting, source, query, cache=cache)
        assert warm == cold
        assert _tgd_firings() == before
        assert calls["solve"].count == 1
        assert calls["enumerate_cwa_presolutions"].count == 1
        assert obs.snapshot()["counters"]["answering.cache_hits"] == 4

    def test_partial_hit_computes_the_rest_once(self, tmp_path, calls):
        setting, source = example_2_1_setting(), example_2_1_source()
        query = parse_query("Q(x) :- E(x, y)")
        cache = ResultCache(tmp_path)
        # What the CLI's ``certain --cache`` leaves behind.
        _cached_answers(
            cache,
            answer_key(setting, source, query, "certain"),
            lambda: certain_answers(setting, source, query),
        )
        calls["solve"].count = 0
        answers = all_four_semantics(setting, source, query, cache=cache)
        assert obs.snapshot()["counters"]["answering.cache_hits"] == 1
        assert calls["solve"].count == 1
        assert calls["enumerate_cwa_presolutions"].count == 1
        assert answers == _singles(setting, source, query)

    def test_space_half_only_when_core_verdicts_cached(self, tmp_path, calls):
        setting, source = example_2_1_setting(), example_2_1_source()
        query = parse_query("Q(x) :- E(x, y)")
        cache = ResultCache(tmp_path)
        all_four_semantics(setting, source, query, cache=cache)
        keys = self._keys(setting, source, query)
        for name in ("potential_certain", "maybe"):
            cache.invalidate("answers", keys[name])
        calls["solve"].count = 0
        calls["blockwise_core"].count = 0
        calls["enumerate_cwa_presolutions"].count = 0
        obs.reset()
        all_four_semantics(setting, source, query, cache=cache)
        # The space half alone: one chase for its canonical solution,
        # one enumeration, no core and no walk over the core's worlds.
        assert calls["solve"].count == 1
        assert calls["blockwise_core"].count == 0
        assert _span_count("core.blockwise") == 0
        assert calls["enumerate_cwa_presolutions"].count == 1
        walked = obs.snapshot()["counters"]["answering.worlds_visited"]
        assert walked == _space_worlds(setting, source)

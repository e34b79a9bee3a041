"""Tests for enumerating CWA-(pre)solutions; Example 5.3."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.core import isomorphic
from repro.cwa import (
    enumerate_cwa_presolutions,
    enumerate_cwa_solutions,
    is_cwa_solution,
    is_homomorphic_image_of,
    is_maximal_cwa_solution,
    is_minimal_cwa_solution,
    core_solution,
)
from repro.generators.settings_library import (
    example_5_3_named_solutions,
    example_5_3_source,
)
from repro.logic import parse_instance


class TestExample53:
    def test_exactly_four_solutions_for_one_p_fact(
        self, setting_5_3, source_5_3
    ):
        """For S = {P(1)} the CWA-solutions, up to renaming of nulls, are
        the four equality patterns of (z1..z4) that map into the
        canonical solution: all distinct, z3=z4, z1=z2, and both
        (the core)."""
        solutions = enumerate_cwa_solutions(setting_5_3, source_5_3)
        assert len(solutions) == 4

    def test_named_solutions_present(self, setting_5_3, source_5_3):
        solutions = enumerate_cwa_solutions(setting_5_3, source_5_3)
        t, t_prime = example_5_3_named_solutions()
        assert any(isomorphic(t, s) for s in solutions)
        assert any(isomorphic(t_prime, s) for s in solutions)

    def test_t_and_t_prime_incomparable(self, setting_5_3, source_5_3):
        """Neither T nor T' is a homomorphic image of another
        CWA-solution (the paper's incomparability claim)."""
        solutions = enumerate_cwa_solutions(setting_5_3, source_5_3)
        t, t_prime = example_5_3_named_solutions()
        for named in (t, t_prime):
            others = [s for s in solutions if not isomorphic(s, named)]
            assert not any(
                is_homomorphic_image_of(named, other) for other in others
            )

    def test_no_maximal_solution(self, setting_5_3, source_5_3):
        solutions = enumerate_cwa_solutions(setting_5_3, source_5_3)
        assert not any(
            is_maximal_cwa_solution(setting_5_3, source_5_3, s, solutions)
            for s in solutions
        )

    def test_core_is_the_unique_minimal(self, setting_5_3, source_5_3):
        solutions = enumerate_cwa_solutions(setting_5_3, source_5_3)
        minimal = core_solution(setting_5_3, source_5_3)
        assert is_minimal_cwa_solution(
            setting_5_3, source_5_3, minimal, solutions
        )
        non_core = [s for s in solutions if not isomorphic(s, minimal)]
        assert not any(
            is_minimal_cwa_solution(setting_5_3, source_5_3, s, solutions)
            for s in non_core
        )

    def test_solution_count_grows_exponentially(self, setting_5_3):
        """|CWA-solutions(S_n)| = 4^n: each P(i) independently picks one
        of the 4 patterns (the paper lower-bounds this by 2^n)."""
        counts = {}
        for n in (1, 2):
            source = example_5_3_source(n)
            counts[n] = len(enumerate_cwa_solutions(setting_5_3, source))
        assert counts[1] == 4
        assert counts[2] == 16


class TestEnumerationSoundness:
    def test_every_enumerated_presolution_is_one(
        self, setting_2_1, source_2_1
    ):
        from repro.cwa import is_cwa_presolution

        presolutions = enumerate_cwa_presolutions(setting_2_1, source_2_1)
        assert presolutions
        for candidate in presolutions:
            assert is_cwa_presolution(setting_2_1, source_2_1, candidate)

    def test_every_enumerated_solution_is_one(self, setting_2_1, source_2_1):
        for candidate in enumerate_cwa_solutions(setting_2_1, source_2_1):
            assert is_cwa_solution(setting_2_1, source_2_1, candidate)

    def test_results_pairwise_non_isomorphic(self, setting_2_1, source_2_1):
        results = enumerate_cwa_presolutions(setting_2_1, source_2_1)
        for i, left in enumerate(results):
            for right in results[i + 1 :]:
                assert not isomorphic(left, right)

    def test_known_solutions_found(self, setting_2_1, source_2_1, solutions_2_1):
        _, t2, t3 = solutions_2_1
        solutions = enumerate_cwa_solutions(setting_2_1, source_2_1)
        assert any(isomorphic(t2, s) for s in solutions)
        assert any(isomorphic(t3, s) for s in solutions)

    def test_no_solution_no_enumeration(self):
        from repro.core import Schema
        from repro.exchange import DataExchangeSetting

        setting = DataExchangeSetting.from_strings(
            Schema.of(Src=2),
            Schema.of(Tgt=2),
            ["Src(x, y) -> Tgt(x, y)"],
            ["Tgt(x, y) & Tgt(x, z) -> y = z"],
        )
        source = parse_instance("Src('a','b'), Src('a','c')")
        assert enumerate_cwa_solutions(setting, source) == []

    def test_empty_source(self, setting_2_1):
        from repro.core import Instance

        solutions = enumerate_cwa_solutions(setting_2_1, Instance())
        assert len(solutions) == 1
        assert len(solutions[0]) == 0


class TestDepthBudget:
    """``max_depth`` bounds every chase step of a branch, the
    deterministic ones between branch points included."""

    @pytest.mark.parametrize("max_depth", [5, 14])
    def test_too_small_a_depth_raises(self, max_depth, setting_2_1, source_2_1):
        from repro.core.errors import ChaseDivergence

        with pytest.raises(ChaseDivergence):
            enumerate_cwa_presolutions(
                setting_2_1, source_2_1, max_depth=max_depth
            )

    def test_fifteen_steps_are_enough_for_example_2_1(
        self, setting_2_1, source_2_1
    ):
        """Example 2.1's longest branch, a dead one, takes 15 steps
        (its successful ones take at most 4); with that budget the
        enumeration is the default one."""
        bounded = enumerate_cwa_presolutions(
            setting_2_1, source_2_1, max_depth=15
        )
        unbounded = enumerate_cwa_presolutions(setting_2_1, source_2_1)
        assert len(bounded) == 173
        assert [item.sorted_atoms() for item in bounded] == [
            item.sorted_atoms() for item in unbounded
        ]


class TestSilence:
    """The enumeration and ``find_alpha`` chase without observers: no
    ``chase.*`` counter, ledger step, attribution row or heartbeat."""

    def test_enumeration_and_find_alpha_leave_no_trace(
        self, monkeypatch, setting_2_1, source_2_1
    ):
        import io

        import repro.obs as obs
        from repro.cwa import find_alpha
        from repro.exchange import DataExchangeSetting
        from repro.obs import attribution
        from repro.obs.provenance import recording

        canonical = setting_2_1.canonical_universal_solution(source_2_1)
        core = core_solution(setting_2_1, source_2_1)
        # The canonical solution's own chase is not the enumeration's.
        monkeypatch.setattr(
            DataExchangeSetting,
            "canonical_universal_solution",
            lambda self, source, **options: canonical,
        )
        stream = io.StringIO()
        monkeypatch.setattr(
            attribution, "_HEARTBEAT", attribution.Heartbeat(stream)
        )

        def observed(ledger):
            counters = obs.snapshot()["counters"]
            return (
                {
                    name: value
                    for name, value in counters.items()
                    if name.startswith("chase.")
                },
                len(ledger),
                json.dumps(attribution.dependencies(), sort_keys=True),
                stream.getvalue(),
            )

        with attribution.attributing(), recording() as ledger:
            before = observed(ledger)
            solutions = enumerate_cwa_solutions(setting_2_1, source_2_1)
            alpha = find_alpha(setting_2_1, source_2_1, core)
            after = observed(ledger)
        assert len(solutions) == 3
        assert alpha is not None
        assert after == before


class TestSourcePartComputedOnce:
    """The s-t tgds match the source part, which no chase step changes,
    so the enumeration takes its reduct once, not once per step."""

    @pytest.mark.parametrize("example", ["2.1", "5.3"])
    def test_one_source_reduct_per_enumeration(
        self, monkeypatch, example, setting_2_1, source_2_1, setting_5_3
    ):
        from repro.core import Instance

        setting, source = (
            (setting_2_1, source_2_1)
            if example == "2.1"
            else (setting_5_3, example_5_3_source(2))
        )
        reducts = []
        original = Instance.reduct

        def counting_reduct(instance, schema):
            reducts.append(schema)
            return original(instance, schema)

        monkeypatch.setattr(Instance, "reduct", counting_reduct)
        solutions = enumerate_cwa_solutions(setting, source)
        monkeypatch.setattr(Instance, "reduct", original)
        assert solutions
        assert reducts.count(setting.source_schema) == 1


class TestSearchCount:
    """The enumeration's work, counted.

    Each witness choice is checked atom by atom against the canonical
    solution before its branch is cloned, and states hold their target
    part only, so most dead choices never reach a homomorphism search.
    The bounds leave a little room over the counts measured when the
    prefilter went in (74 and 20 searches; the full search on every
    branch made 191 and 65).
    """

    @staticmethod
    def _searches(setting, source):
        import repro.obs as obs

        obs.reset()
        solutions = enumerate_cwa_solutions(setting, source)
        searches = obs.snapshot()["counters"]["hom.searches"]
        obs.reset()
        return solutions, searches

    def test_example_2_1(self, setting_2_1, source_2_1):
        solutions, searches = self._searches(setting_2_1, source_2_1)
        assert len(solutions) == 3
        assert searches <= 80

    def test_example_5_3(self, setting_5_3):
        solutions, searches = self._searches(
            setting_5_3, example_5_3_source(1)
        )
        assert len(solutions) == 4
        assert searches <= 25


#: ``answer_battery``'s items (``bench/workloads.py``) with the
#: valuations and worlds one ``all_four_semantics`` call walks: the core
#: half's plus every enumerated solution's.  Pruning the enumeration and
#: skipping valuation-stable dependencies in the world test change
#: neither.
BATTERY_WALKS = (
    ("2.1", "Q(x) :- E(x, y)", 208, 208),
    ("2.1", "Q(x) :- F(x, y)", 208, 208),
    ("2.1", "Q(x, y) :- E(x, y)", 208, 208),
    ("2.1", "Q(x) :- E(x, y) & F(y, z)", 208, 208),
    ("5.3", "Q(x) :- E(x, y, z)", 92, 82),
    ("5.3", "Q(x, y) :- F(x, y, y)", 92, 82),
    ("5.3", "Q(x, y, z) :- F(x, y, z)", 92, 82),
)


class TestBatteryWalks:
    @pytest.mark.parametrize("example, text, valuations, worlds", BATTERY_WALKS)
    def test_walk_counts(
        self, example, text, valuations, worlds, setting_2_1, source_2_1,
        setting_5_3,
    ):
        import repro.obs as obs
        from repro.answering import all_four_semantics
        from repro.logic import parse_query

        setting, source = (
            (setting_2_1, source_2_1)
            if example == "2.1"
            else (setting_5_3, example_5_3_source(1))
        )
        obs.reset()
        all_four_semantics(setting, source, parse_query(text))
        counters = obs.snapshot()["counters"]
        obs.reset()
        assert counters["answering.valuations_enumerated"] == valuations
        assert counters["answering.worlds_visited"] == worlds


def _pinned_inputs():
    """Examples 2.1, 5.3 (n = 1, 2) and 80 random weakly acyclic draws."""
    from repro.generators.settings_library import (
        example_2_1_setting,
        example_2_1_source,
        example_5_3_setting,
    )

    from .test_space_kernels import _draw

    yield example_2_1_setting(), example_2_1_source()
    yield example_5_3_setting(), example_5_3_source(1)
    yield example_5_3_setting(), example_5_3_source(2)
    for seed in range(80):
        yield _draw(seed)


def solutions_digest() -> dict:
    """One digest of ``enumerate_cwa_solutions`` on :func:`_pinned_inputs`:
    the ordered list of each input's solutions, null names included."""
    digest = hashlib.sha256()
    inputs = solutions = 0
    for setting, source in _pinned_inputs():
        found = enumerate_cwa_solutions(setting, source)
        inputs += 1
        solutions += len(found)
        listing = [repr(item.sorted_atoms()) for item in found]
        digest.update(repr(listing).encode() + b"\n")
    return {
        "hash": sys.hash_info.algorithm,
        "inputs": inputs,
        "solutions": solutions,
        "digest": digest.hexdigest(),
    }


#: :func:`solutions_digest` under ``PYTHONHASHSEED=0``, one literal per
#: string hash algorithm.  The order of the solutions follows set
#: iteration order, so the digest moves with the hash seed.  Regenerate
#: with ``PYTHONHASHSEED=0 PYTHONPATH=src python -c "from
#: tests.test_enumeration import solutions_digest; print(solutions_digest())"``
#: from the repository root.
SOLUTIONS_DIGEST = {
    "siphash13": "40c6aebea6c2045244fc65187a39e8cb86e5b3adae35b568481d84ac2466fa27",
}


class TestSolutionsPinned:
    """The solution lists, their order and their null names are pinned."""

    def test_solutions_digest(self):
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                "import json; from tests.test_enumeration import "
                "solutions_digest; print(json.dumps(solutions_digest()))",
            ],
            capture_output=True,
            text=True,
            cwd=root,
            env={
                "PYTHONHASHSEED": "0",
                "PYTHONPATH": src_dir,
                "PATH": "/usr/bin:/bin",
            },
            check=True,
        )
        document = json.loads(completed.stdout)
        if document["hash"] not in SOLUTIONS_DIGEST:
            pytest.skip(f"no digest for string hash {document['hash']}")
        assert (document["inputs"], document["solutions"]) == (83, 111)
        assert document["digest"] == SOLUTIONS_DIGEST[document["hash"]]

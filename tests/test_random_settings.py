"""Tests for the random-setting generator + cross-module sweeps with it."""

import pytest

from repro.chase import satisfies_all, standard_chase
from repro.chase.seminaive import seminaive_chase
from repro.core import isomorphic
from repro.cwa import core_solution, is_cwa_solution
from repro.generators import random_source_for, random_weakly_acyclic_setting
from repro.homomorphism import blockwise_core, core, fold_step, hom_equivalent


class TestGenerator:
    @pytest.mark.parametrize("seed", range(8))
    def test_weakly_acyclic_by_construction(self, seed):
        setting = random_weakly_acyclic_setting(seed)
        assert setting.is_weakly_acyclic

    @pytest.mark.parametrize("seed", range(8))
    def test_richly_acyclic_flag(self, seed):
        setting = random_weakly_acyclic_setting(
            seed, richly_acyclic_only=True
        )
        assert setting.is_richly_acyclic

    def test_reproducible(self):
        left = random_weakly_acyclic_setting(42)
        right = random_weakly_acyclic_setting(42)
        assert [repr(d) for d in left.all_dependencies] == [
            repr(d) for d in right.all_dependencies
        ]

    def test_source_matches_schema(self):
        setting = random_weakly_acyclic_setting(1)
        source = random_source_for(setting, seed=1)
        setting.validate_source(source)


class TestRandomSweeps:
    """The paper's structural theorems over generated settings."""

    @pytest.mark.parametrize("seed", range(10))
    def test_chase_terminates_and_satisfies(self, seed):
        setting = random_weakly_acyclic_setting(seed)
        source = random_source_for(setting, seed=seed)
        outcome = standard_chase(source, list(setting.all_dependencies))
        assert not outcome.diverged  # weak acyclicity's guarantee
        if outcome.successful:
            assert satisfies_all(outcome.instance, setting.all_dependencies)

    @pytest.mark.parametrize("seed", range(10))
    def test_engines_agree(self, seed):
        setting = random_weakly_acyclic_setting(seed)
        source = random_source_for(setting, seed=seed + 100)
        deps = list(setting.all_dependencies)
        full = standard_chase(source, deps)
        semi = seminaive_chase(source, deps)
        assert full.status == semi.status
        if full.successful:
            assert hom_equivalent(full.instance, semi.instance)

    @pytest.mark.parametrize("seed", range(8))
    def test_core_algorithms_agree(self, seed):
        setting = random_weakly_acyclic_setting(seed)
        source = random_source_for(setting, seed=seed + 200)
        canonical = setting.canonical_universal_solution(source)
        if canonical is None:
            assert core_solution(setting, source) is None
            return
        reference = core(canonical)
        blockwise = blockwise_core(canonical)
        assert isomorphic(reference, blockwise)
        assert fold_step(blockwise) is None
        assert isomorphic(reference, core_solution(setting, source))

    @pytest.mark.parametrize("seed", range(6))
    def test_theorem_5_1_holds(self, seed):
        setting = random_weakly_acyclic_setting(seed)
        source = random_source_for(
            setting, seed=seed + 300, atoms_per_relation=2
        )
        minimal = core_solution(setting, source)
        if minimal is None:
            return
        assert is_cwa_solution(setting, source, minimal)

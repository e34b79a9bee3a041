"""The library chases a setting's source through ``solve`` only.

``DataExchangeSetting.canonical_universal_solution`` and
``core_solution`` hand out ``solve``'s instances, atom for atom, null
names included.  Two engines would name the nulls differently: their
trigger order follows set iteration order, which follows the string
hash seed, so CI runs this suite under several seeds.
"""

import pytest

from repro.cwa import core_solution
from repro.exchange import solve
from repro.generators import example_2_1_scaled_source, example_2_1_setting


@pytest.fixture(scope="module")
def setting():
    return example_2_1_setting()


@pytest.mark.parametrize("pairs, seed", [(4, 1), (16, 3)])
class TestOnePipeline:
    def test_canonical_solution_is_solves(self, setting, pairs, seed):
        source = example_2_1_scaled_source(pairs, seed=seed)
        assert set(setting.canonical_universal_solution(source)) == set(
            solve(setting, source, compute_core=False).canonical_solution
        )

    def test_core_solution_is_solves(self, setting, pairs, seed):
        source = example_2_1_scaled_source(pairs, seed=seed)
        assert set(core_solution(setting, source)) == set(
            solve(setting, source).core_solution
        )

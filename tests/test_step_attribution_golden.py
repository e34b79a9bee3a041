"""Golden per-step attribution of every plan ``solve`` runs on Example 2.1.

The executor fills each step's ``[probes, candidates, emitted, seconds]``
row when attribution is on.  The work columns and each plan's ``uses``
are deterministic, so they are pinned here literally: a change to how a
step counts its own candidates (as opposed to its child steps' or the
consumer's) shows up as a changed row.
"""

import pytest

from repro.exchange import solve
from repro.obs import attribution

#: identity -> (label, uses, per-step [probes, candidates, emitted]).
GOLDEN = {
    "0add048b743d701e": ("E(x1, x2) [prebound x1, x2]", 1, [[1, 1, 0]]),
    "21c85bcbf4fa6978": ("F(x, y) & F(x, z)", 1, [[0, 1, 1], [1, 1, 1]]),
    "64ed230c5a524920": (
        "E(x, z1) & F(x, z2) [prebound x]",
        1,
        [[1, 1, 1], [1, 0, 0]],
    ),
    "a1a2505bd7eb0d2b": ("F(a, _b1) & G(_b1, _b2)", 2, [[2, 1, 1], [1, 0, 0]]),
    "a588d9b62284aebe": ("E(a, _b0)", 1, [[1, 1, 1]]),
    "bfc93b031e1659f4": ("G(x, z) [prebound x]", 1, [[1, 0, 0]]),
}


@pytest.fixture(autouse=True)
def clean_attribution():
    attribution.enable(False)
    attribution.reset()
    yield
    attribution.enable(False)
    attribution.reset()


def test_solve_example_2_1_step_rows(setting_2_1, source_2_1):
    with attribution.attributing():
        solve(setting_2_1, source_2_1)
    observed = {
        identity: (
            record["label"],
            record["uses"],
            [counts[:3] for counts in record["counts"]],
        )
        for identity, record in attribution.plans().items()
    }
    assert observed == GOLDEN

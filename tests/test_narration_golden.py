"""Golden narration of chase runs.

The chase narrates itself in the paper's two shapes: the I₀, I₁, ...,
Iₘ sequence of Example 4.4 (:func:`repro.chase.narrate`, ``repro
chase``, ``repro explain``) and the justification chain of one fact
(``repro explain --why``).  This suite pins that text on a fixed set of
cases (see :mod:`tests.narration_observation`), with wall-clock times
masked, so a change to how steps are recorded cannot change what a
reader sees.

The golden run happens in a child process under ``PYTHONHASHSEED=0``,
because null numbering follows set iteration order.  There is one
table per string hash algorithm.  Regenerate a table with
``PYTHONHASHSEED=0 PYTHONPATH=src python tests/narration_observation.py``
(its ``texts``, under the ``hash`` it names), written out with
``pprint.pformat(GOLDEN, width=79)``.
"""

import json
import os
import subprocess
import sys

import pytest

from . import narration_observation
from .narration_observation import CASES


@pytest.fixture(scope="module")
def golden_run():
    import repro

    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    completed = subprocess.run(
        [sys.executable, narration_observation.__file__],
        capture_output=True,
        text=True,
        env={
            "PYTHONHASHSEED": "0",
            "PYTHONPATH": src_dir,
            "PATH": "/usr/bin:/bin",
        },
        check=True,
    )
    document = json.loads(completed.stdout)
    if document["hash"] not in GOLDEN:
        pytest.skip(f"no golden table for string hash {document['hash']}")
    return GOLDEN[document["hash"]], document["texts"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_narration_is_pinned(case, golden_run):
    expected, actual = golden_run
    assert actual[case] == expected[case]


def test_elapsed_time_is_masked():
    text = "result: success after 3 step(s), 3 null(s) created, in 0.0008s"
    assert narration_observation.mask(text).endswith("created, in …s")


GOLDEN = {'siphash13': {'cli/chase': 'exit 0\n'
                            'I0 = {M(a, b), N(a, b), N(a, c)}\n'
                            'I1 = I0 ∪ {E(a, b)}  (apply st1 with x1 ↦ a, x2 '
                            '↦ b)\n'
                            'I2 = I1 ∪ {E(a, ⊥0), F(a, ⊥1)}  (apply st2 with '
                            'x ↦ a, y ↦ b)\n'
                            'I3 = I2 ∪ {G(⊥1, ⊥2)}  (apply t1 with x ↦ ⊥1, y '
                            '↦ a)\n'
                            'result: success after 3 step(s), 3 null(s) '
                            'created, in …s\n',
               'cli/explain_why': 'exit 0\n'
                                  'I0 = {M(a, b), N(a, b), N(a, c)}\n'
                                  'I1 = I0 ∪ {E(a, b)}  (apply st1 with x1 ↦ '
                                  'a, x2 ↦ b)\n'
                                  'I2 = I1 ∪ {E(a, ⊥0), F(a, ⊥1)}  (apply st2 '
                                  'with x ↦ a, y ↦ b)\n'
                                  'I3 = I2 ∪ {G(⊥1, ⊥2)}  (apply t1 with x ↦ '
                                  '⊥1, y ↦ a)\n'
                                  'result: success after 3 step(s), 3 null(s) '
                                  'created, in …s\n'
                                  '\n'
                                  'G(⊥1, ⊥2) ⇐ t1[x ↦ ⊥1, y ↦ a; z ↦ ⊥2]\n'
                                  '  F(a, ⊥1) ⇐ st2[x ↦ a, y ↦ b; z1 ↦ ⊥0, z2 '
                                  '↦ ⊥1]\n'
                                  '    N(a, b) ⇐ source\n',
               'narrate/alpha_example_2_1': 'I0 = {M(a, b), N(a, b), N(a, '
                                            'c)}\n'
                                            'I1 = I0 ∪ {E(a, b)}  (apply d1 '
                                            'with x1 ↦ a, x2 ↦ b)\n'
                                            '    I1 = Instance({E(a, b), M(a, '
                                            'b), N(a, b), N(a, c)})\n'
                                            'I2 = I1 ∪ {E(a, ⊥1), F(a, ⊥3)}  '
                                            '(apply d2 with x ↦ a, y ↦ b)\n'
                                            '    I2 = Instance({E(a, b), E(a, '
                                            '⊥1), F(a, ⊥3), M(a, b), N(a, b), '
                                            'N(a, c)})\n'
                                            'I3 = I2 ∪ {E(a, ⊥2)}  (apply d2 '
                                            'with x ↦ a, y ↦ c)\n'
                                            '    I3 = Instance({E(a, b), E(a, '
                                            '⊥1), E(a, ⊥2), F(a, ⊥3), M(a, '
                                            'b), N(a, b), N(a, c)})\n'
                                            'I4 = I3 ∪ {G(⊥3, ⊥4)}  (apply d3 '
                                            'with x ↦ ⊥3, y ↦ a)\n'
                                            '    I4 = Instance({E(a, b), E(a, '
                                            '⊥1), E(a, ⊥2), F(a, ⊥3), G(⊥3, '
                                            '⊥4), M(a, b), N(a, b), N(a, '
                                            'c)})\n'
                                            'result: success after 4 step(s), '
                                            '4 null(s) created, in …s',
               'narrate/merging_chase': 'I0 = {E(a, b), G(a, c), K(c)}\n'
                                        'I1 = I0 ∪ {F(a, ⊥0)}  (apply tgd '
                                        'with x ↦ a, y ↦ b)\n'
                                        '    I1 = Instance({E(a, b), F(a, '
                                        '⊥0), G(a, c), K(c)})\n'
                                        'I2 = I1 ∪ {F(a, c)}  (apply tgd with '
                                        'x ↦ a, y ↦ c)\n'
                                        '    I2 = Instance({E(a, b), F(a, c), '
                                        'F(a, ⊥0), G(a, c), K(c)})\n'
                                        'I3 = I2 ∪ {H(a)}  (apply tgd with x '
                                        '↦ a, y ↦ c)\n'
                                        '    I3 = Instance({E(a, b), F(a, c), '
                                        'F(a, ⊥0), G(a, c), H(a), K(c)})\n'
                                        'I4: apply egd, replacing ⊥0 by c\n'
                                        '    I4 = Instance({E(a, b), F(a, c), '
                                        'G(a, c), H(a), K(c)})\n'
                                        'result: success after 4 step(s), 1 '
                                        'null(s) created, in …s'}}

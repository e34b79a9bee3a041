"""Golden ``hom`` work counters for every matcher executor.

The matcher has two executors: the compiled plan (the default), which
also fills per-step rows when attributed execution (``repro
explain-plan``) is on, and the interpreted reference search that
``plans.interpreted_only()`` forces.  Each charges the candidates it
tries and the backtracks it takes to the counter pair of the innermost
``attributed`` scope; ``bench/compare.py`` checks ``hom.candidates`` as
its work identity.  These literals pin that count per executor, with
attribution off ("plain") and on ("profiled"), so a change to any
executor's bookkeeping shows up here first.

The inputs run in a child process under a fixed hash seed: the order
in which a core folds its atoms follows set iteration order.
"""

import subprocess
import sys

_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from contextlib import nullcontext
import repro.obs as obs
from repro import Atom, Const, DataExchangeSetting, Instance, RelationSymbol, Schema
from repro.generators.settings_library import (
    example_2_1_setting, example_2_1_source, example_5_3_setting,
    example_5_3_source,
)
from repro.homomorphism import core
from repro.homomorphism.search import canonical_pattern
from repro.logic import parse_instance, plans
from repro.logic.matching import attributed, exists_match
from repro.obs import attribution

symmetric = DataExchangeSetting.from_strings(
    Schema.of(P=1),
    Schema.of(E=2, F=2),
    ["P(a) -> exists x, y . E(a,x) & E(a,y) & F(x,y) & F(y,x)"],
    [],
)
P = RelationSymbol("P", 1)
inputs = {{
    "example_2_1": example_2_1_setting().canonical_universal_solution(
        example_2_1_source()
    ),
    "symmetric_4": symmetric.canonical_universal_solution(
        Instance(Atom(P, (Const(f"a{{i}}"),)) for i in range(4))
    ),
    "example_5_3": example_5_3_setting().canonical_universal_solution(
        example_5_3_source(1)
    ),
}}
early_pattern, _ = canonical_pattern(parse_instance("E('a', #1), F(#1, 'c')"))
early_target = parse_instance(
    ", ".join([f"E('a', #{{i}})" for i in range(1, 9)])
    + ", F(#7, 'c'), F(#8, 'c'), F(#3, #3)"
)


def report(mode, name):
    print(
        mode,
        name,
        obs.counter("hom.candidates").value,
        obs.counter("hom.backtracks").value,
    )


for mode, scope in (
    ("plain", nullcontext),
    ("profiled", attribution.attributing),
    ("interpreted", plans.interpreted_only),
):
    with scope():
        for name, canonical in inputs.items():
            obs.reset()
            core(canonical)
            report(mode, name)
        # Two matches, with dead ends before the first; exists_match
        # closes the search once the first is found.
        obs.reset()
        with attributed("hom"):
            assert exists_match(early_pattern, early_target)
        report(mode, "early_stop")
"""

#: (mode, input) -> (hom.candidates, hom.backtracks) under PYTHONHASHSEED=0.
GOLDEN = {
    ("plain", "example_2_1"): (2, 1),
    ("plain", "symmetric_4"): (112, 104),
    ("plain", "example_5_3"): (4, 2),
    ("plain", "early_stop"): (4, 2),
    ("profiled", "example_2_1"): (2, 1),
    ("profiled", "symmetric_4"): (112, 104),
    ("profiled", "example_5_3"): (4, 2),
    ("profiled", "early_stop"): (4, 2),
    ("interpreted", "example_2_1"): (1, 0),
    ("interpreted", "symmetric_4"): (40, 40),
    ("interpreted", "example_5_3"): (2, 0),
    ("interpreted", "early_stop"): (2, 0),
}


def _counters_under_hash_seed(seed: str):
    import repro

    src_dir = repro.__file__.rsplit("/repro/", 1)[0]
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(src=src_dir)],
        capture_output=True,
        text=True,
        env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
        check=True,
    )
    found = {}
    for line in completed.stdout.splitlines():
        mode, name, candidates, backtracks = line.split()
        found[(mode, name)] = (int(candidates), int(backtracks))
    return found


def test_hom_counters_match_golden_for_every_executor():
    assert _counters_under_hash_seed("0") == GOLDEN

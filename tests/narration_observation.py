"""Narrate chase runs as text, the way the paper writes them.

The harness behind ``tests/test_narration_golden.py``.  For each case in
:data:`CASES` it returns the text a reader sees: the stdout of ``repro
chase`` and ``repro explain --why`` on the Example 2.1 files, and the
:func:`repro.chase.narrate` text of an α-chase and of a chase that
merges nulls.  Wall-clock times (``in 0.0008s``) are masked.

Null numbering follows trigger order, which follows set iteration
order, so golden texts are taken in a child process under a fixed
``PYTHONHASHSEED``.  Run ``PYTHONHASHSEED=0 PYTHONPATH=src python
tests/narration_observation.py`` to print the texts as JSON.
"""

import contextlib
import io
import json
import os
import re
import sys

from repro.chase import alpha_chase, narrate, standard_chase
from repro.chase.alpha import ExplicitAlpha
from repro.cli import main
from repro.core import Const, Null, NullFactory
from repro.dependencies import parse_dependencies
from repro.generators.settings_library import (
    example_2_1_setting,
    example_2_1_source,
)
from repro.logic import parse_instance
from repro.obs.provenance import recording

FILES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples",
    "files",
)
SETTING = os.path.join(FILES, "example21.setting")
SOURCE = os.path.join(FILES, "example21.source")

_ELAPSED = re.compile(r"in \d+\.\d+s")


def mask(text: str) -> str:
    """``text`` with every ``in <seconds>s`` replaced by ``in …s``."""
    return _ELAPSED.sub("in …s", text)


def _cli(*argv: str) -> str:
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        code = main(list(argv))
    return f"exit {code}\n" + mask(stream.getvalue())


def _narrated(source, chase, **options) -> str:
    with recording() as ledger:
        outcome = chase()
    return mask(narrate(source, outcome, ledger.steps, **options))


def _alpha_example_2_1() -> str:
    """The α-chase of Example 2.1 that ``test_explain.py`` narrates."""
    setting = example_2_1_setting()
    source = example_2_1_source()
    d1, d2 = setting.st_dependencies
    d3, _ = setting.target_dependencies

    def values(*items):
        return tuple(
            Null(i) if isinstance(i, int) else Const(i) for i in items
        )

    alpha = ExplicitAlpha(
        {
            (d2, values("a"), values("b")): values(1, 3),
            (d2, values("a"), values("c")): values(2, 3),
            (d3, values(3), values("a")): values(4),
        },
        fallback=NullFactory(100),
    )
    deps = list(setting.all_dependencies)
    return _narrated(
        source,
        lambda: alpha_chase(source, deps, alpha),
        show_instances=True,
    )


def _merging_chase() -> str:
    """A standard chase whose key egd merges a fresh null into ``c``."""
    deps = parse_dependencies(
        [
            "E(x, y) -> exists z . F(x, z)",
            "G(x, y) -> F(x, y)",
            "F(x, y) & F(x, z) -> y = z",
            "F(x, y) & K(y) -> H(x)",
        ]
    )
    source = parse_instance("E('a','b'), G('a','c'), K('c')")
    return _narrated(
        source, lambda: standard_chase(source, deps), show_instances=True
    )


CASES = {
    "cli/chase": lambda: _cli("chase", SETTING, SOURCE),
    "cli/explain_why": lambda: _cli(
        "explain", SETTING, SOURCE, "--why", "G(#1, #2)"
    ),
    "narrate/alpha_example_2_1": _alpha_example_2_1,
    "narrate/merging_chase": _merging_chase,
}


def narrate_all() -> dict:
    """The text of every case, keyed by case name."""
    return {name: case() for name, case in CASES.items()}


if __name__ == "__main__":
    json.dump(
        {"hash": sys.hash_info.algorithm, "texts": narrate_all()},
        sys.stdout,
        sort_keys=True,
    )

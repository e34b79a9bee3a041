"""The repository benchmark: five closed-loop workloads over ``repro``.

``python3 bench/run.py --workload NAME --seed N`` runs one workload;
see ``bench/README.md``.  The package imports the library from this
checkout's ``src/`` directory, never from an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_src() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    Raises SystemExit when the checkout has no ``src/repro`` package, so
    the benchmark fails instead of measuring some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

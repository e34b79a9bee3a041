"""Compare two untraced benchmark results against the bounds.

    python3 bench/compare.py A.json B.json

``A.json`` and ``B.json`` are written by ``bench/run.py --out``; A is
the base.  For each workload and end-to-end metric the script prints
both values, B's value as a ratio of A's, and a verdict against the
metric's bound in ``BENCHMARK.json``:

* ``within bound`` -- B moved by no more than the bound, either way;
* ``better`` or ``worse`` -- B moved past the bound, and every child of
  B moved the same way from A's child under the same hash seed;
* ``unresolved`` -- B moved past the bound, but the children disagree
  on the direction, so the runs cannot tell a change from noise.

When A and B used the same ``--seed`` it also compares each workload's
counted work (``hom.candidates``, ``chase.tgd_firings``), which repeats
exactly for one commit.  Exits with 1 when a verdict is ``worse`` or
the work differs, and with 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"
    )
)


def _load(path: Path) -> dict:
    result = json.loads(path.read_text(encoding="utf-8"))
    if result.get("trace"):
        raise SystemExit(f"{path}: a traced run has no end-to-end metrics")
    return result


def verdict(spec: dict, base: dict, head: dict) -> tuple:
    """``(ratio, verdict)`` of one workload's metric; ratio is head/base."""
    name = spec["name"]
    ratio = head["metrics"][name]["value"] / base["metrics"][name]["value"]
    # Oriented so that a value above 1 is worse.
    worse = ratio if spec["better"] == "lower" else 1 / ratio
    if abs(worse - 1) <= spec["bound"]:
        return ratio, "within bound"
    by_seed = {child["hash_seed"]: child[name] for child in base["children"]}
    directions = set()
    for child in head["children"]:
        child_ratio = child[name] / by_seed[child["hash_seed"]]
        if spec["better"] == "higher":
            child_ratio = 1 / child_ratio
        directions.add(child_ratio > 1)
    if directions != {worse > 1}:
        return ratio, "unresolved"
    return ratio, "worse" if worse > 1 else "better"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    base, head = _load(args.base), _load(args.head)

    failed = False
    print(f"{'workload':22} {'metric':12} {'base':>12} {'head':>12} {'ratio':>7}  verdict")
    for workload, base_result in base["workloads"].items():
        head_result = head["workloads"].get(workload)
        if head_result is None:
            print(f"{workload:22} missing from {args.head}")
            failed = True
            continue
        for spec in SPEC["end_to_end"]:
            ratio, said = verdict(spec, base_result, head_result)
            failed |= said == "worse"
            print(
                f"{workload:22} {spec['name']:12} "
                f"{base_result['metrics'][spec['name']]['value']:12.6g} "
                f"{head_result['metrics'][spec['name']]['value']:12.6g} "
                f"{ratio:7.3f}  {said}"
            )
        if base["seed"] != head["seed"]:
            print(f"{workload:22} work not compared: the seeds differ")
        elif base_result["work"] != head_result["work"]:
            print(
                f"{workload:22} work differs: "
                f"{base_result['work']} vs {head_result['work']}"
            )
            failed = True
        else:
            print(f"{workload:22} work identical: {base_result['work']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

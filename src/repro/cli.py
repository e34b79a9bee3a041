"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``solve``      chase a source instance and print the canonical universal
               solution and the core (= the minimal CWA-solution).
``chase``      run the chase and narrate it as I₀, I₁, ..., Iₘ
               (``explain`` without ``--why``).
``certain``    answer a query under one of the four CWA semantics.
``check``      classify a candidate target instance (solution /
               universal / CWA-presolution / CWA-solution).
``analyze``    report weak/rich acyclicity and restricted-class
               membership of a setting.
``report``     the full exchange report: acyclicity, chase stats,
               Gaifman blocks, core size, per-null justifications.
``explain``    paper-style I₀, I₁, ..., Iₘ chase narration, with
               optional DAG-aware justification of one fact (--why).
               Both narrations are read off the provenance ledger the
               chase records (into ``--provenance``'s, when given).
``explain-plan``  EXPLAIN ANALYZE for the chase: run a solve with
               attributed execution on and print, per dependency, the
               compiled match plans actually used -- join order, probe
               choices, per-step candidate/row counts, self-time, and
               estimated-vs-actual misestimate flags (``--json`` emits
               the repro.obs/attribution/v1 document).

``solve`` can re-solve *incrementally*: ``--provenance LEDGER`` on a
first run persists the derivation ledger, and a later ``solve
--incremental-from LEDGER --delta FILE`` resumes from it, applies the
source delta, and maintains the solution without re-chasing.

Settings are described in a small text format, one declaration per line
(``#`` starts a comment):

    source:      M/2 N/2
    target:      E/2 F/2 G/2
    st:          M(x1,x2) -> E(x1,x2)
    st:          N(x,y) -> exists z1, z2 . E(x,z1) & F(x,z2)
    target-dep:  F(y,x) -> exists z . G(x,z)
    target-dep:  F(x,y) & F(x,z) -> y = z

Instances use the library DSL: ``M('a','b'), N('a','b'), N('a','c')``.

``solve``, ``certain``, ``report`` and ``explain-plan`` accept
``--cache DIR`` (reuse chase/core/answer results across invocations,
content-addressed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import uuid
from typing import List, Optional, Sequence

from . import obs
from .chase.loop import DEFAULT_MAX_STEPS
from .core.errors import ReproError
from .core.instance import Instance
from .core.schema import Schema
from .exchange.setting import DataExchangeSetting
from .exchange.solve import DEFAULT_ENGINE
from .logic.parser import parse_instance, parse_query


def load_setting_text(text: str) -> DataExchangeSetting:
    """Parse the setting file format described in the module docstring."""
    source_decl: Optional[str] = None
    target_decl: Optional[str] = None
    st_lines: List[str] = []
    target_dep_lines: List[str] = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ReproError(
                f"malformed setting line (expected 'key: value'): {line!r}"
            )
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "source":
            source_decl = value
        elif key == "target":
            target_decl = value
        elif key == "st":
            st_lines.append(value)
        elif key in ("target-dep", "tdep", "t"):
            target_dep_lines.append(value)
        else:
            raise ReproError(f"unknown setting key {key!r} in {line!r}")
    if source_decl is None or target_decl is None:
        raise ReproError("a setting needs 'source:' and 'target:' lines")
    return DataExchangeSetting.from_strings(
        _parse_schema(source_decl),
        _parse_schema(target_decl),
        st_lines,
        target_dep_lines,
    )


def _parse_schema(declaration: str) -> Schema:
    """Parse ``"M/2 N/2"`` into a schema."""
    arities = {}
    for token in declaration.split():
        name, _, arity = token.partition("/")
        if not arity.isdigit():
            raise ReproError(
                f"bad relation declaration {token!r} (expected Name/arity)"
            )
        arities[name] = int(arity)
    return Schema.from_mapping(arities)


def load_setting(path: str) -> DataExchangeSetting:
    with open(path, encoding="utf-8") as handle:
        return load_setting_text(handle.read())


def load_instance(path: str, setting: Optional[DataExchangeSetting] = None) -> Instance:
    """Load an instance from a DSL file or a CSV directory."""
    import os

    schema = setting.joint_schema if setting is not None else None
    if os.path.isdir(path):
        from .io import load_instance as load_csv_directory

        return load_csv_directory(path, schema)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    # Strip comment lines so instance files can be annotated.
    cleaned = "\n".join(
        line for line in text.splitlines() if not line.strip().startswith("#")
    )
    return parse_instance(cleaned, schema)


def _print_instance(instance: Instance, label: str) -> None:
    print(f"{label} ({len(instance)} atoms):")
    print(instance.pretty())


def _add_obs_flags(subparser: argparse.ArgumentParser) -> None:
    """Telemetry flags shared by solve / chase / certain / report."""
    subparser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-phase wall-time and counter table to stderr",
    )
    subparser.add_argument(
        "--trace-json",
        metavar="PATH",
        default=None,
        help="write the telemetry event stream as line-JSON to PATH",
    )
    subparser.add_argument(
        "--trace-viewer",
        metavar="PATH",
        default=None,
        help=(
            "write a Chrome trace-event timeline to PATH (load it in "
            "https://ui.perfetto.dev or chrome://tracing)"
        ),
    )
    subparser.add_argument(
        "--provenance",
        metavar="PATH",
        default=None,
        help=(
            "record a derivation provenance ledger during the run and "
            "write it to PATH as repro.obs/prov/v1 JSON"
        ),
    )
    subparser.add_argument(
        "--metrics-log",
        metavar="PATH",
        default=None,
        help=(
            "append one repro.obs/log/v1 JSONL record (status, wall "
            "seconds, full telemetry snapshot) to PATH; $REPRO_METRICS "
            "sets the default path"
        ),
    )
    subparser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "emit a one-line JSON heartbeat per chase round to stderr "
            "(round, instance size, null-creation rate, divergence "
            "flag); $REPRO_PROGRESS selects another target, "
            "$REPRO_PROGRESS_INTERVAL rate-limits in seconds"
        ),
    )


def _add_cache_flag(subparser: argparse.ArgumentParser) -> None:
    """The ``--cache`` flag: the :mod:`repro.engine` result cache."""
    subparser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help=(
            "reuse chase/core/answer results from a content-addressed "
            "cache rooted at DIR (created on first use)"
        ),
    )


def _cache_from_args(args: argparse.Namespace):
    """The ``--cache`` result cache, or None."""
    if not args.cache:
        return None
    from .engine import ResultCache

    return ResultCache(args.cache)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def command_solve(args: argparse.Namespace) -> int:
    from .exchange.solve import solve

    if args.delta and not args.incremental_from:
        raise ReproError("--delta needs --incremental-from LEDGER")
    setting = load_setting(args.setting)
    source = load_instance(args.source, setting)
    cache = _cache_from_args(args)
    if args.incremental_from:
        result = _solve_incremental(args, setting, source, cache)
    else:
        result = solve(setting, source, max_steps=args.max_steps, cache=cache)
    if not result.cwa_solution_exists:
        print("no solution exists (the chase failed on an egd)")
        return 1
    _print_instance(result.canonical_solution, "canonical universal solution")
    print()
    _print_instance(result.core_solution, "core (minimal CWA-solution)")
    print(f"\nchase steps: {result.chase_steps}")
    if args.fingerprint:
        from .engine.fingerprint import fingerprint_instance

        print(
            "core fingerprint: "
            f"{fingerprint_instance(result.core_solution, canonical=True)}"
        )
    return 0


def _solve_incremental(
    args: argparse.Namespace, setting: DataExchangeSetting, source: Instance, cache
):
    """The ``solve --incremental-from`` path: resume a ledger, apply a delta.

    ``source`` is the instance the persisted ledger describes; ``--delta``
    edits it.  When ``--provenance`` is recording, the persisted ledger is
    ingested into the outer recording ledger, so the file written at exit
    holds the *updated* derivation DAG (ready for the next increment).
    """
    from .incremental import DeltaSession, SourceDelta
    from .obs.provenance import active_ledger

    with open(args.incremental_from, encoding="utf-8") as handle:
        persisted = handle.read()
    session = DeltaSession.from_ledger(
        setting,
        source,
        persisted,
        max_steps=args.max_steps,
        cache=cache,
        ledger=active_ledger(),
    )
    if args.delta:
        with open(args.delta, encoding="utf-8") as handle:
            delta = SourceDelta.parse(handle.read(), setting.source_schema)
        session.apply(delta)
    return session.result


def command_certain(args: argparse.Namespace) -> int:
    from .answering import (
        certain_answers,
        maybe_answers,
        persistent_maybe_answers,
        potential_certain_answers,
    )

    setting = load_setting(args.setting)
    source = load_instance(args.source, setting)
    query = parse_query(args.query, setting.target_schema)
    semantics = {
        "certain": certain_answers,
        "potential-certain": potential_certain_answers,
        "persistent-maybe": persistent_maybe_answers,
        "maybe": maybe_answers,
    }[args.semantics]
    cache = _cache_from_args(args)
    if cache is not None:
        from .answering.semantics import _cached_answers
        from .engine.fingerprint import answer_key

        key = answer_key(
            setting, source, query, args.semantics.replace("-", "_")
        )
        answers = _cached_answers(
            cache, key, lambda: semantics(setting, source, query)
        )
    else:
        answers = semantics(setting, source, query)
    if query.arity == 0:
        print("true" if answers else "false")
        return 0
    for answer in sorted(
        tuple(str(value) for value in row) for row in answers
    ):
        print("\t".join(answer))
    print(f"-- {len(answers)} answer(s) under {args.semantics}", file=sys.stderr)
    return 0


def command_check(args: argparse.Namespace) -> int:
    from .cwa import is_cwa_presolution, is_cwa_solution

    setting = load_setting(args.setting)
    source = load_instance(args.source, setting)
    target = load_instance(args.target, setting)
    verdicts = {
        "solution": setting.is_solution(source, target),
        "universal solution": setting.is_universal_solution(source, target),
        "CWA-presolution": is_cwa_presolution(setting, source, target),
        "CWA-solution": is_cwa_solution(setting, source, target),
    }
    for name, verdict in verdicts.items():
        print(f"{name:<18}: {'yes' if verdict else 'no'}")
    return 0 if verdicts["CWA-solution"] else 1


def command_report(args: argparse.Namespace) -> int:
    from .exchange.report import render, report

    setting = load_setting(args.setting)
    source = load_instance(args.source, setting)
    exchange_report = report(
        setting, source, max_steps=args.max_steps, cache=_cache_from_args(args)
    )
    print(render(exchange_report))
    return 0 if exchange_report.status == "solved" else 1


def _parse_fact(text: str, setting: DataExchangeSetting) -> "Atom":
    """Parse one atom (``"G(#1, #2)"``) for --why lookups."""
    parsed = parse_instance(text, setting.joint_schema)
    atoms = list(parsed)
    if len(atoms) != 1:
        raise ReproError(
            f"--why expects exactly one atom, got {len(atoms)} in {text!r}"
        )
    return atoms[0]


def command_explain(args: argparse.Namespace) -> int:
    """``repro explain`` and ``repro chase``: narrate a semi-naive chase.

    The I₀, I₁, ..., Iₘ narration is replayed from the steps the run
    records in a provenance ledger; ``--why`` (``explain`` only) adds
    the justification chain of one fact, walked off the same ledger.
    """
    from .chase import narrate, narrate_why, seminaive_chase
    from .obs.provenance import active_ledger, recording

    setting = load_setting(args.setting)
    source = load_instance(args.source, setting)
    # Record into the outer ledger (--provenance) when one is installed,
    # else into a ledger of this command's own.
    with recording(active_ledger()) as ledger:
        mark = len(ledger)
        outcome = seminaive_chase(
            source, list(setting.all_dependencies), max_steps=args.max_steps
        )
    steps = ledger.steps[mark:]
    print(narrate(source, outcome, steps, show_instances=args.show_instances))
    if args.why:
        fact = _parse_fact(args.why, setting)
        print()
        print(narrate_why(ledger, fact))
    return 0 if outcome.successful else 1


def _dependency_plan_roles(dependency):
    """The ``(role, plan-cache key)`` list a dependency evaluates with.

    These mirror the plans the semi-naive chase runs: a tgd checks its
    conclusion with the frontier pre-bound (its held plan), and
    matches its premise with no pre-bound keys only when the premise has
    more than one atom (a one-atom premise's bindings are read straight
    off the delta, with no matcher call); an egd matches its premise
    only (its held plan).  FO premises (``premise_atoms is None``) have
    no compiled plan.  Delta-seeded completion joins are other plans.
    """
    roles = []
    if dependency.is_tgd:
        if (
            dependency.premise_atoms is not None
            and len(dependency.premise_atoms) > 1
        ):
            roles.append(
                ("premise", tuple(dependency.premise_atoms), (), frozenset())
            )
        roles.append(
            (
                "conclusion-check",
                tuple(dependency.conclusion_atoms),
                (),
                frozenset(dependency.frontier),
            )
        )
    else:
        roles.append(
            ("premise", tuple(dependency.premise_atoms), (), frozenset())
        )
    return roles


def _plan_steps_payload(meta, counts) -> list:
    """Per-step rows: static metadata + runtime counters + estimates."""
    attribution = obs.attribution
    steps = []
    for index, (step, row) in enumerate(zip(meta, counts)):
        estimate = attribution.step_estimate(step, row[1])
        misestimate = attribution.step_misestimate(step, row)
        steps.append(
            {
                "index": index,
                "relation": step.get("relation"),
                "kind": "probe" if step.get("ground") else "scan",
                "checks": step.get("checks", 0),
                "probes": row[0],
                "candidates": row[1],
                "rows": row[2],
                "seconds": row[3],
                "estimated_rows": round(estimate, 3),
                "misestimate": round(misestimate, 2)
                if misestimate is not None
                else None,
            }
        )
    return steps


def _explain_plan_document(setting: DataExchangeSetting) -> dict:
    """The repro.obs/attribution/v1 EXPLAIN ANALYZE document.

    Joins the attribution tables (plan stats keyed by content digest,
    per-dependency chase attribution) against the setting's
    dependencies by recompiling each dependency's plan keys --
    ``plan_for`` is content-addressed, so the recompiled identity names
    the same record the attributed run filled in.
    """
    from .logic import plans

    attribution = obs.attribution
    payload = attribution.export() or {}
    plan_table = payload.get("plans", {})
    dep_table = payload.get("dependencies", {})
    matched = set()
    dependencies = []
    for dependency in setting.all_dependencies:
        name = attribution.dep_label(dependency)
        row = dep_table.get(name, {})
        plans_out = []
        for role, patterns, inequalities, keys in _dependency_plan_roles(
            dependency
        ):
            plan = plans.plan_for(patterns, inequalities, keys)
            matched.add(plan.identity)
            record = plan_table.get(plan.identity)
            meta = record["steps"] if record else plan._step_meta()
            counts = (
                record["counts"]
                if record
                else [[0, 0, 0, 0.0] for _ in meta]
            )
            plans_out.append(
                {
                    "role": role,
                    "identity": plan.identity,
                    "label": plan.label,
                    "uses": record["uses"] if record else 0,
                    "steps": _plan_steps_payload(meta, counts),
                }
            )
        dependencies.append(
            {
                "name": name,
                "dependency": repr(dependency),
                "kind": "tgd" if dependency.is_tgd else "egd",
                "triggers": row.get("triggers", 0),
                "firings": row.get("firings", 0),
                "merges": row.get("merges", 0),
                "nulls": row.get("nulls", 0),
                "seconds": row.get("seconds", 0.0),
                "rounds": row.get("rounds", {}),
                "plans": plans_out,
            }
        )
    other_plans = [
        {
            "identity": identity,
            "label": record["label"],
            "uses": record["uses"],
            "steps": _plan_steps_payload(record["steps"], record["counts"]),
        }
        for identity, record in sorted(plan_table.items())
        if identity not in matched
    ]
    return {
        "schema": obs.attribution.ATTRIBUTION_SCHEMA,
        "engine": DEFAULT_ENGINE,
        "dependencies": dependencies,
        "other_plans": other_plans,
    }


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.3f}ms"


def _render_plan_lines(plan: dict, lines: list, indent: str) -> None:
    lines.append(
        f"{indent}plan {plan['identity']}"
        + (f" [{plan['role']}]" if "role" in plan else "")
        + f": {plan['label']}  (uses={plan['uses']})"
    )
    for step in plan["steps"]:
        flag = (
            f"  MISESTIMATE {step['misestimate']}x"
            if step.get("misestimate") is not None
            else ""
        )
        lines.append(
            f"{indent}  -> step {step['index']} {step['kind']:<5} "
            f"{step['relation']:<12} probes={step['probes']} "
            f"cand={step['candidates']} rows={step['rows']} "
            f"est={step['estimated_rows']} time={_ms(step['seconds'])}"
            f"{flag}"
        )


def _render_explain_plan(document: dict) -> str:
    lines = [
        f"EXPLAIN ANALYZE  (engine={document['engine']}, "
        f"{len(document['dependencies'])} dependencies, "
        f"chase steps={document.get('chase_steps', '?')})"
    ]
    for dep in document["dependencies"]:
        lines.append("")
        lines.append(f"{dep['name']} ({dep['kind']}): {dep['dependency']}")
        rounds = ",".join(
            sorted(dep["rounds"], key=lambda k: (k == "overflow", int(k) if k != "overflow" else 0))
        )
        lines.append(
            f"  triggers={dep['triggers']} firings={dep['firings']} "
            f"merges={dep['merges']} nulls={dep['nulls']} "
            f"time={_ms(dep['seconds'])}"
            + (f" rounds={rounds}" if rounds else "")
        )
        for plan in dep["plans"]:
            _render_plan_lines(plan, lines, "  ")
    if document["other_plans"]:
        lines.append("")
        lines.append("other plans (seed/rest splits, queries, core search):")
        for plan in document["other_plans"]:
            _render_plan_lines(plan, lines, "  ")
    return "\n".join(lines)


def command_explain_plan(args: argparse.Namespace) -> int:
    from .exchange.solve import solve

    attribution = obs.attribution
    setting = load_setting(args.setting)
    source = load_instance(args.source, setting)
    cache = _cache_from_args(args)
    attribution.reset()
    with attribution.attributing():
        result = solve(setting, source, max_steps=args.max_steps, cache=cache)
    document = _explain_plan_document(setting)
    document["solved"] = result.cwa_solution_exists
    document["chase_steps"] = result.chase_steps
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(_render_explain_plan(document))
    return 0 if result.cwa_solution_exists else 1


def command_stats(args: argparse.Namespace) -> int:
    from .obs.stats import load_stats_file, render_delta, render_stats

    if len(args.files) > 2:
        raise ReproError("stats takes one file (table) or two (delta view)")
    loaded = [load_stats_file(path) for path in args.files]
    if args.json:
        import json as json_module

        merged = [snapshot for snapshot, _ in loaded]
        print(
            json_module.dumps(
                merged[0] if len(merged) == 1 else merged,
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    if len(loaded) == 1:
        snapshot, runs = loaded[0]
        print(
            render_stats(
                snapshot, runs=runs, title=args.files[0], top=args.top
            )
        )
    else:
        (baseline, _), (fresh, _) = loaded
        print(render_delta(baseline, fresh))
    return 0


def command_analyze(args: argparse.Namespace) -> int:
    setting = load_setting(args.setting)
    print(f"source schema : {' '.join(setting.source_schema.names)}")
    print(f"target schema : {' '.join(setting.target_schema.names)}")
    print(f"s-t tgds      : {len(setting.st_dependencies)}")
    print(
        f"target deps   : {len(setting.target_tgds)} tgd(s), "
        f"{len(setting.target_egds)} egd(s)"
    )
    print(f"weakly acyclic: {'yes' if setting.is_weakly_acyclic else 'no'}")
    print(f"richly acyclic: {'yes' if setting.is_richly_acyclic else 'no'}")
    print(
        "egd-only Σt   : "
        + ("yes" if setting.target_dependencies_are_egds_only else "no")
    )
    print(
        "full + egds   : "
        + ("yes" if setting.is_full_and_egd_setting else "no")
    )
    if not setting.is_weakly_acyclic:
        print(
            "note: outside the weakly acyclic class Existence-of-CWA-"
            "Solutions is undecidable in general (Theorem 6.2)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "CWA-solutions for data exchange settings with target "
            "dependencies (Hernich & Schweikardt, PODS 2007)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="chase and compute the core")
    solve.add_argument("setting", help="setting file")
    solve.add_argument("source", help="source instance file")
    solve.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    solve.add_argument(
        "--incremental-from",
        metavar="LEDGER",
        default=None,
        help=(
            "resume from a repro.obs/prov/v1 ledger a previous "
            "solve --provenance of this source wrote, instead of "
            "chasing from scratch"
        ),
    )
    solve.add_argument(
        "--delta",
        metavar="FILE",
        default=None,
        help=(
            "with --incremental-from: apply a source delta before "
            "printing -- either repro.io/delta/v1 JSON or lines of "
            "\"+ M('a','b')\" / \"- N('x','y')\""
        ),
    )
    solve.add_argument(
        "--fingerprint",
        action="store_true",
        help=(
            "also print the fp/v1 canonical fingerprint of the core "
            "(identical across batch and incremental solves of the "
            "same source)"
        ),
    )
    _add_cache_flag(solve)
    _add_obs_flags(solve)
    solve.set_defaults(run=command_solve)

    chase = commands.add_parser("chase", help="narrated chase run")
    chase.add_argument("setting")
    chase.add_argument("source")
    chase.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    chase.add_argument("--show-instances", action="store_true")
    _add_obs_flags(chase)
    chase.set_defaults(run=command_explain, why=None)

    certain = commands.add_parser("certain", help="answer a query")
    certain.add_argument("setting")
    certain.add_argument("source")
    certain.add_argument("query", help="e.g. \"Q(x) :- E(x, y)\"")
    certain.add_argument(
        "--semantics",
        choices=("certain", "potential-certain", "persistent-maybe", "maybe"),
        default="certain",
    )
    _add_cache_flag(certain)
    _add_obs_flags(certain)
    certain.set_defaults(run=command_certain)

    check = commands.add_parser(
        "check", help="classify a candidate target instance"
    )
    check.add_argument("setting")
    check.add_argument("source")
    check.add_argument("target")
    check.set_defaults(run=command_check)

    analyze = commands.add_parser("analyze", help="inspect a setting")
    analyze.add_argument("setting")
    analyze.set_defaults(run=command_analyze)

    report_cmd = commands.add_parser(
        "report", help="full exchange report for a (setting, source) pair"
    )
    report_cmd.add_argument("setting")
    report_cmd.add_argument("source")
    report_cmd.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    _add_cache_flag(report_cmd)
    _add_obs_flags(report_cmd)
    report_cmd.set_defaults(run=command_report)

    explain_cmd = commands.add_parser(
        "explain",
        help="paper-style I0, I1, ..., Im narration of a chase",
    )
    explain_cmd.add_argument("setting")
    explain_cmd.add_argument("source")
    explain_cmd.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    explain_cmd.add_argument("--show-instances", action="store_true")
    explain_cmd.add_argument(
        "--why",
        metavar="ATOM",
        default=None,
        help=(
            "also print the justification chain of one fact, e.g. "
            "--why \"G(#1, #2)\" (walks the derivation DAG to the source)"
        ),
    )
    _add_obs_flags(explain_cmd)
    explain_cmd.set_defaults(run=command_explain)

    explain_plan = commands.add_parser(
        "explain-plan",
        help=(
            "EXPLAIN ANALYZE: attributed solve with per-step match-plan "
            "stats and per-dependency chase attribution"
        ),
    )
    explain_plan.add_argument("setting")
    explain_plan.add_argument("source")
    explain_plan.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    explain_plan.add_argument(
        "--json",
        action="store_true",
        help="emit the repro.obs/attribution/v1 document instead of text",
    )
    _add_cache_flag(explain_plan)
    _add_obs_flags(explain_plan)
    explain_plan.set_defaults(run=command_explain_plan)

    stats_cmd = commands.add_parser(
        "stats",
        help=(
            "aggregate telemetry snapshots / --metrics-log files into a "
            "table, or diff two of them"
        ),
    )
    stats_cmd.add_argument(
        "files",
        nargs="+",
        metavar="FILE",
        help=(
            "one repro.obs/v1 snapshot or repro.obs/log/v1 metrics log "
            "(aggregate table), or two (baseline then fresh: delta view)"
        ),
    )
    stats_cmd.add_argument(
        "--json",
        action="store_true",
        help="print the merged snapshot(s) as JSON instead of a table",
    )
    stats_cmd.add_argument(
        "--top",
        metavar="N",
        type=int,
        default=None,
        help=(
            "sort each aggregate-table section by self-time (counters "
            "and gauges by value) and keep only the top N rows"
        ),
    )
    stats_cmd.set_defaults(run=command_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    has_obs_flags = hasattr(args, "profile")
    sinks: List[obs.EventSink] = []
    previous_sink = None
    recorder = None
    metrics_path = None
    progress_installed = False
    if has_obs_flags:
        # Per-invocation metrics: zero the registry so --profile and the
        # trace flags describe exactly this command.
        obs.reset()
        if args.progress and obs.attribution.heartbeat() is None:
            # REPRO_PROGRESS may already have installed one at import
            # (possibly pointing at a file); --progress adds stderr.
            obs.attribution.enable_heartbeat("stderr")
            progress_installed = True
        metrics_path = args.metrics_log or os.environ.get("REPRO_METRICS")
        if args.trace_json:
            sinks.append(obs.JsonLinesSink(args.trace_json))
        if args.trace_viewer:
            sinks.append(obs.TraceViewerSink(args.trace_viewer))
        if sinks:
            installed = sinks[0] if len(sinks) == 1 else obs.TeeSink(*sinks)
            previous_sink = obs.install_sink(installed)
        if args.provenance:
            from .obs.provenance import recording

            recorder = recording()
            recorder.__enter__()
    started = time.perf_counter()
    status = 2
    try:
        status = args.run(args)
        return status
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        # Every telemetry artifact is finalized here, on success *and*
        # on error paths: a failing chase still leaves valid, parseable
        # trace files and a complete provenance ledger behind.
        if progress_installed:
            obs.attribution.disable_heartbeat()
        if has_obs_flags and args.profile:
            print(
                obs.render_stats(
                    obs.snapshot(), title="profile (per-phase wall times)"
                ),
                file=sys.stderr,
            )
        if metrics_path:
            # One structured run record per invocation, status included,
            # so failing runs are logged too.
            try:
                with obs.MetricsLog(metrics_path) as metrics_log:
                    metrics_log.log_run(
                        command=args.command,
                        status=status,
                        seconds=time.perf_counter() - started,
                        snapshot=obs.snapshot(),
                        run_id=uuid.uuid4().hex[:16],
                        argv=list(argv) if argv is not None else sys.argv[1:],
                    )
            except OSError as error:
                print(
                    f"warning: cannot append metrics log: {error}",
                    file=sys.stderr,
                )
        if sinks:
            obs.get_telemetry().emit_snapshot()
            obs.install_sink(previous_sink)
            for sink in sinks:
                try:
                    sink.close()
                except OSError as error:
                    print(
                        f"warning: failed to close trace sink: {error}",
                        file=sys.stderr,
                    )
        if recorder is not None:
            ledger = recorder.ledger
            recorder.__exit__(None, None, None)
            try:
                with open(args.provenance, "w", encoding="utf-8") as handle:
                    handle.write(ledger.dumps(indent=2))
                    handle.write("\n")
            except OSError as error:
                print(
                    f"warning: cannot write provenance ledger: {error}",
                    file=sys.stderr,
                )


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

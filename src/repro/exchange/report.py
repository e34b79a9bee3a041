"""Structured exchange reports: everything about one (D, S) pair.

``report(setting, source)`` assembles the full picture a practitioner
wants before trusting an exchange: the setting's acyclicity class, the
chase outcome, canonical solution and core sizes, the Gaifman block
census, per-null justifications (recovered through the α witness of the
core), a sample of certain□/maybe□ answers per target relation, and a
telemetry snapshot (spans, counters, gauges) of the work performed.
``render`` turns it into text; the CLI exposes it as
``python -m repro report`` (add ``--profile`` for a per-phase table on
stderr, ``--trace-json PATH`` for the raw event stream).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..chase.loop import DEFAULT_MAX_STEPS
from ..core.errors import ChaseDivergence
from ..core.instance import Instance
from ..core.terms import Variable
from ..cwa.presolution import find_alpha
from ..homomorphism.blocks import block_statistics
from ..logic.queries import ConjunctiveQuery
from ..obs import get_telemetry, span
from .setting import DataExchangeSetting
from .solve import ExchangeResult, solve

#: Answer samples enumerate valuations of the core, which is exponential
#: in its null count; skip the sample beyond this many nulls.
ANSWER_SAMPLE_MAX_NULLS = 6


class ExchangeReport:
    """All derived facts about one exchange, ready to render."""

    def __init__(
        self,
        setting: DataExchangeSetting,
        source: Instance,
        result: Optional[ExchangeResult],
        diverged: Optional[str],
    ):
        self.setting = setting
        self.source = source
        self.result = result
        self.diverged = diverged
        self.justifications: List[Tuple[str, str]] = []
        #: Per target relation: (name, |certain□|, |maybe□|), read off the
        #: core (Theorem 7.1: ``□Q(Core)`` and ``◇Q(Core)``).
        self.answer_samples: List[Tuple[str, int, int]] = []
        #: Telemetry snapshot (``repro.obs`` schema); filled by ``report``.
        self.metrics: Optional[dict] = None
        if result is not None and result.core_solution is not None:
            self._collect_justifications()
            self._collect_answer_samples()

    def _collect_justifications(self) -> None:
        """Per-justification witness values of the core's α (if found)."""
        alpha = find_alpha(self.setting, self.source, self.result.core_solution)
        if alpha is None:  # pragma: no cover - Theorem 5.1 says never
            return
        for (tgd, u, v), witnesses in sorted(
            alpha.assigned().items(),
            key=lambda item: (item[0][0].name, str(item[0][1]), str(item[0][2])),
        ):
            if not witnesses:
                continue
            trigger = ", ".join(str(value) for value in u + v)
            produced = ", ".join(str(value) for value in witnesses)
            self.justifications.append(
                (f"{tgd.name or 'tgd'} on ({trigger})", produced)
            )

    def _collect_answer_samples(self) -> None:
        """Atomic-query answer counts per target relation, on the core.

        For each target relation R/k the sample evaluates
        ``Q(x̄) :- R(x̄)`` on the minimal CWA-solution, whose □Q and ◇Q
        are certain□ and maybe□ (persistent maybe) by Theorem 7.1 -- a
        cheap summary of how much of the target is definite versus
        possible in every CWA-solution.  maybe◇ ranges over the whole
        solution space and is not sampled.  Skipped when the core has too
        many nulls for valuation enumeration to stay cheap.
        """
        from ..answering.valuations import certain_and_maybe_on
        from ..core.atoms import Atom

        minimal = self.result.core_solution
        if len(minimal.nulls()) > ANSWER_SAMPLE_MAX_NULLS:
            return
        dependencies = self.setting.target_dependencies
        with span("report.answer_samples"):
            for name in sorted(self.setting.target_schema.names):
                relation = self.setting.target_schema[name]
                variables = tuple(
                    Variable(f"x{i}") for i in range(relation.arity)
                )
                query = ConjunctiveQuery(
                    variables, [Atom(relation, variables)]
                )
                certain, maybe = certain_and_maybe_on(
                    query, minimal, dependencies
                )
                self.answer_samples.append((name, len(certain), len(maybe)))

    @property
    def status(self) -> str:
        if self.diverged is not None:
            return "diverged"
        if self.result is None or not self.result.cwa_solution_exists:
            return "no solution"
        return "solved"


def report(
    setting: DataExchangeSetting,
    source: Instance,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    cache=None,
) -> ExchangeReport:
    """Build the report; chase divergence is captured, not raised.

    The returned report carries a telemetry snapshot of everything the
    run did (``report.metrics``); the snapshot is cumulative for the
    process-wide registry -- call :func:`repro.obs.reset` first for a
    per-report reading.

    ``cache`` (a :class:`repro.engine.ResultCache`) lets a repeated
    report skip the chase and core entirely.
    """
    with span("report"):
        try:
            result = solve(setting, source, max_steps=max_steps, cache=cache)
            built = ExchangeReport(setting, source, result, None)
        except ChaseDivergence as divergence:
            built = ExchangeReport(setting, source, None, str(divergence))
    built.metrics = get_telemetry().snapshot()
    return built


def render(exchange_report: ExchangeReport) -> str:
    """Human-readable rendering of a report."""
    setting = exchange_report.setting
    source = exchange_report.source
    lines: List[str] = []
    lines.append("=== data exchange report ===")
    lines.append(
        f"setting: |Σst| = {len(setting.st_dependencies)}, "
        f"|Σt| = {len(setting.target_dependencies)} "
        f"({len(setting.target_tgds)} tgds, {len(setting.target_egds)} egds)"
    )
    lines.append(
        "acyclicity: "
        + ("richly acyclic" if setting.is_richly_acyclic else "")
        + (
            "weakly acyclic (not richly)"
            if setting.is_weakly_acyclic and not setting.is_richly_acyclic
            else ""
        )
        + ("NOT weakly acyclic" if not setting.is_weakly_acyclic else "")
    )
    if setting.target_dependencies_are_egds_only:
        lines.append("class: Σt egds only (CanSol exists, Prop. 5.4)")
    elif setting.is_full_and_egd_setting:
        lines.append("class: full tgds + egds (CanSol exists, Prop. 5.4)")
    lines.append(f"source: {len(source)} atoms over {source.relation_names()}")

    if exchange_report.status == "diverged":
        lines.append(f"chase: DIVERGED -- {exchange_report.diverged}")
        lines.extend(_metrics_lines(exchange_report))
        return "\n".join(lines)
    if exchange_report.status == "no solution":
        lines.append(
            "chase: FAILED -- an egd equated distinct constants; "
            "no (CWA-)solution exists"
        )
        lines.extend(_metrics_lines(exchange_report))
        return "\n".join(lines)

    result = exchange_report.result
    lines.append(f"chase: success in {result.chase_steps} steps")
    canonical = result.canonical_solution
    minimal = result.core_solution
    lines.append(
        f"canonical universal solution: {len(canonical)} atoms, "
        f"{len(canonical.nulls())} nulls"
    )
    stats = block_statistics(canonical)
    lines.append(
        f"gaifman blocks: {stats['blocks']} "
        f"(largest {stats['largest']}, avg {stats['average']:.1f})"
    )
    lines.append(
        f"core (minimal CWA-solution): {len(minimal)} atoms, "
        f"{len(minimal.nulls())} nulls "
        f"({len(canonical) - len(minimal)} atoms folded away)"
    )
    if exchange_report.justifications:
        lines.append("null justifications (the core's α witness):")
        for trigger, produced in exchange_report.justifications:
            lines.append(f"  {trigger} ↦ {produced}")
    if exchange_report.answer_samples:
        lines.append("answer sample (atomic queries on the core):")
        for name, certain, maybe in exchange_report.answer_samples:
            lines.append(
                f"  {name}: {certain} certain□ answer(s), "
                f"{maybe} maybe□ answer(s)"
            )
    lines.extend(_metrics_lines(exchange_report))
    return "\n".join(lines)


def _metrics_lines(exchange_report: ExchangeReport) -> List[str]:
    """The metrics section: per-phase wall-times, counters, gauges."""
    metrics = exchange_report.metrics
    if not metrics:
        return []
    lines = ["metrics:"]
    for path, stats in metrics.get("spans", {}).items():
        lines.append(
            f"  [span] {path}: {stats['seconds']:.4f}s "
            f"({stats['count']} call(s))"
        )
    for name, value in metrics.get("counters", {}).items():
        lines.append(f"  [counter] {name}: {value}")
    for name, value in metrics.get("gauges", {}).items():
        lines.append(f"  [gauge] {name}: {value}")
    return lines

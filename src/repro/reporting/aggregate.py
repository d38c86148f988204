"""Aggregate multi-system report rendering.

Renders one `repro.pipeline.PipelineReport` as a Table 5-style
cross-system summary plus an execution footer (executor, wall time,
cache behaviour) - the operator's view of a batched sweep - and one
`repro.checker.FleetReport` as the corresponding fleet-validation
summary (per-system precision/recall, throughput, interpreter
agreement).  `render_validation_report` is the single-config view the
`check` CLI command prints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.inject.reactions import ReactionCategory
from repro.pipeline.runner import PipelineReport
from repro.reporting.tables import render_table

if TYPE_CHECKING:  # keep table-only CLI invocations import-light
    from repro.checker.fleet import FleetReport
    from repro.checker.validate import ValidationReport

_CATEGORIES = [
    ReactionCategory.CRASH_HANG,
    ReactionCategory.EARLY_TERMINATION,
    ReactionCategory.FUNCTIONAL_FAILURE,
    ReactionCategory.SILENT_VIOLATION,
    ReactionCategory.SILENT_IGNORANCE,
]


def render_pipeline_report(report: PipelineReport) -> str:
    """The aggregate campaign table plus a cache/executor footer."""
    rows = []
    totals = [0] * (len(_CATEGORIES) + 2)
    for run in report.runs:
        counts = run.report.counts_by_category()
        row: list[object] = [run.name, run.report.misconfigurations_tested]
        totals[0] += run.report.misconfigurations_tested
        for i, category in enumerate(_CATEGORIES):
            n = counts.get(category, 0)
            row.append(n)
            totals[i + 1] += n
        row.append(run.report.total())
        totals[-1] += run.report.total()
        row.append(f"{run.duration:.2f}s")
        rows.append(row)
    rows.append(["Total", *totals, ""])
    table = render_table(
        "Pipeline: misconfiguration campaigns across systems",
        [
            "System",
            "Injected",
            "Crash/Hang",
            "Early term.",
            "Functional",
            "Silent viol.",
            "Silent ignor.",
            "Total",
            "Time",
        ],
        rows,
    )
    return table + "\n" + _footer(report)


def render_fleet_report(report: FleetReport) -> str:
    """The fleet-validation table plus a throughput/agreement footer."""
    rows = []
    totals = [0, 0, 0, 0, 0]
    for result in report.results:
        rows.append(
            [
                result.name,
                result.corpus_size,
                result.planted,
                result.flagged,
                result.errors,
                result.warnings,
                _pct(result.scores.precision),
                _pct(result.scores.recall),
                "cache" if result.checker_from_cache else "compiled",
            ]
        )
        totals[0] += result.corpus_size
        totals[1] += result.planted
        totals[2] += result.flagged
        totals[3] += result.errors
        totals[4] += result.warnings
    scores = report.scores()
    rows.append(
        [
            "Total",
            *totals,
            _pct(scores.precision),
            _pct(scores.recall),
            "",
        ]
    )
    table = render_table(
        "Fleet: constraint-checked synthetic user configs",
        [
            "System",
            "Configs",
            "Planted",
            "Flagged",
            "Errors",
            "Warnings",
            "Precision",
            "Recall",
            "Checker",
        ],
        rows,
    )
    checkers = report.cache_stats.get("checkers", {})
    inference = report.cache_stats.get("inference", {})
    lines = [
        table,
        f"executor: {report.executor}; wall time: {report.wall_time:.2f}s; "
        f"{report.throughput():.0f} configs/s "
        f"(seed {report.seed}, mistake rate {report.mistake_rate:.2f})",
        f"checker cache: {checkers.get('hits', 0)} hits / "
        f"{checkers.get('misses', 0)} misses; "
        f"inference cache: {inference.get('hits', 0)} hits / "
        f"{inference.get('misses', 0)} misses",
    ]
    if report.agreement is not None:
        agreement = report.agreement
        lines.append(
            f"interpreter agreement: {agreement.confirmed}/"
            f"{agreement.sampled} flagged configs confirmed misbehaving "
            f"({agreement.refuted} tolerated by the runtime today)"
        )
    return "\n".join(lines)


def render_validation_report(report: ValidationReport) -> str:
    """One config file's diagnostics, human-first."""
    lines = [
        f"{report.system}: {report.parameters_checked} of "
        f"{report.parameters_present} parameters covered by compiled "
        "constraints"
    ]
    if not report.diagnostics:
        lines.append("no problems found")
        return "\n".join(lines)
    for diagnostic in report.diagnostics:
        lines.append(diagnostic.describe())
    errors, warnings = len(report.errors()), len(report.warnings())
    by_kind = ", ".join(
        f"{kind}: {count}"
        for kind, count in sorted(report.by_kind().items())
    )
    lines.append(
        f"{errors} error(s), {warnings} warning(s) ({by_kind})"
    )
    return "\n".join(lines)


def render_submit_report(response, diagnostics: list[dict]) -> str:
    """One service submission's diagnostics, human-first.

    `response` is a `repro.serve.CheckResponse`; `diagnostics` is the
    fully-paginated item list the client drained (already filtered by
    whatever severity/kind filter the submission named).
    """
    lines = [
        f"{response.system}: {response.parameters_checked} of "
        f"{response.parameters_present} parameters covered by compiled "
        f"constraints (revision {response.revision})"
    ]
    if response.history is not None:
        history = response.history
        lines.append(
            f"since revision {history.previous_revision}: "
            f"{len(history.added)} new finding(s), "
            f"{len(history.removed)} resolved, "
            f"{history.unchanged} unchanged"
        )
    if not diagnostics:
        lines.append("no problems found")
        return "\n".join(lines)
    for item in diagnostics:
        where = (
            f" (line {item['config_line']})" if item.get("config_line")
            else ""
        )
        lines.append(
            f"[{item['severity']}] {item['param']}{where}: "
            f"{item['message']}\n"
            f"    fix: {item['suggestion']}\n"
            f"    evidence: {item['evidence']}"
        )
    lines.append(
        f"{response.errors} error(s), {response.warnings} warning(s)"
    )
    return "\n".join(lines)


def _pct(fraction: float | None) -> str:
    return "n/a" if fraction is None else f"{100 * fraction:.1f}%"


def _footer(report: PipelineReport) -> str:
    inference = report.cache_stats.get("inference", {})
    launches = report.cache_stats.get("launches", {})
    snapshots = report.cache_stats.get("snapshots", {})
    lines = [
        f"executor: {report.executor}; wall time: {report.wall_time:.2f}s",
        f"inference cache: {inference.get('hits', 0)} hits / "
        f"{inference.get('misses', 0)} misses; "
        f"launch store: {launches.get('hits', 0)} hits / "
        f"{launches.get('misses', 0)} misses; "
        f"warm boots: {snapshots.get('resumes', 0)} resumes / "
        f"{snapshots.get('boots', 0)} full boots",
    ]
    return "\n".join(lines)

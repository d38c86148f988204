"""Full injection campaign over one system: SPEX constraints in,
vulnerability report out (the per-system row of Table 5).

`Campaign` is the single-system primitive; multi-system sweeps go
through `repro.pipeline.CampaignPipeline`, which fans campaigns out
across executors and shares the inference cache between them.  A
`Campaign` constructed with an `inference_cache` participates in that
sharing; without one it re-infers on every `run_spex()` call.

`run()` tests the per-parameter `MisconfigurationBatch`es in order,
in this process; the pipeline's system-level executor is the only
fan-out of a sweep.  A shared `launch_cache` deduplicates interpreter
runs across batches, campaigns and re-runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core import SpexEngine, SpexOptions, SpexReport
from repro.inject.generators import (
    GeneratorRegistry,
    Misconfiguration,
    batch_by_param,
    default_generators,
)
from repro.inject.harness import InjectionHarness, InjectionVerdict
from repro.inject.reactions import ReactionCategory
from repro.knowledge import default_knowledge
from repro.obs import get_registry, span
from repro.lang.source import Location
from repro.runtime.interpreter import InterpreterOptions
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid the inject <-> systems/pipeline import cycles
    from repro.pipeline.cache import InferenceCache, LaunchCache, SnapshotCache
    from repro.systems.base import SubjectSystem


@dataclass(frozen=True)
class Vulnerability:
    """One confirmed bad reaction, attributable to a code location."""

    system: str
    param: str
    category: ReactionCategory
    rule: str
    detail: str
    injected: tuple[tuple[str, str], ...]
    code_location: Location

    def describe(self) -> str:
        settings = ", ".join(f"{k}={v}" for k, v in self.injected)
        return f"[{self.category}] {self.system}: {settings} -> {self.detail}"


@dataclass
class CampaignReport:
    system: str
    verdicts: list[InjectionVerdict] = field(default_factory=list)
    vulnerabilities: list[Vulnerability] = field(default_factory=list)
    misconfigurations_tested: int = 0
    spex_report: SpexReport | None = None

    def counts_by_category(self) -> dict[ReactionCategory, int]:
        return Counter(v.category for v in self.vulnerabilities)

    def unique_code_locations(self) -> set[tuple[str, int]]:
        return {
            (v.code_location.filename, v.code_location.line)
            for v in self.vulnerabilities
        }

    def total(self) -> int:
        return len(self.vulnerabilities)


@dataclass
class Campaign:
    """spex -> generate -> inject -> classify, for one system."""

    system: "SubjectSystem"
    generators: GeneratorRegistry = field(default_factory=default_generators)
    spex_options: SpexOptions = field(default_factory=SpexOptions)
    # Shared by the pipeline so ablation sweeps and re-runs skip
    # re-inference; None means infer fresh each time.
    inference_cache: "InferenceCache | None" = None
    # Shared by the pipeline so identical launches (same system,
    # rendered config, requests, interpreter options) run once across
    # batches, re-runs and parity sweeps; None disables launch caching.
    launch_cache: "LaunchCache | None" = None
    # Shared warm-boot records (`repro.pipeline.cache.SnapshotCache`):
    # one config's boot prefix is interpreted at most twice across all
    # of this campaign's launches.  None keeps records harness-private
    # (snapshots still on - the harness owns that default).
    snapshot_cache: "SnapshotCache | None" = None
    # Overrides the harness's interpreter options (engine selection,
    # budgets) - the launch-engine benchmarks use this to pit the
    # tree-walking baseline against the codegen engine on identical
    # campaigns.  None keeps the harness default.  Not picklable, so
    # the pipeline's process executor cannot ship it - use `engine`.
    harness_options: InterpreterOptions | None = None
    # Launch-engine override as a plain string ("tree" | "codegen");
    # unlike `harness_options` it crosses the pickle boundary, so
    # process-executor workers honour it too.
    engine: str | None = None

    def run_spex(self) -> SpexReport:
        if self.inference_cache is None:
            return self._infer()
        key = self.inference_cache.key_for(self.system, self.spex_options)
        return self.inference_cache.get_or_compute(key, self._infer)

    def _infer(self) -> SpexReport:
        knowledge = default_knowledge()
        if self.system.custom_knowledge:
            knowledge = knowledge.extend(self.system.custom_knowledge)
        engine = SpexEngine(
            self.system.program(),
            self.system.annotations,
            knowledge=knowledge,
            options=self.spex_options,
        )
        return engine.run()

    def generate(self, spex_report: SpexReport):
        """All misconfigurations of this campaign, batched per
        parameter (Table 2 rules plus guided case alteration)."""
        template = self.system.template_ar()
        misconfs = self.generators.generate(spex_report.constraints, template)
        misconfs += self._case_alterations(spex_report, template)
        return batch_by_param(misconfs), template

    def run(self, spex_report: SpexReport | None = None) -> CampaignReport:
        """Run the campaign; a given `spex_report` skips inference."""
        get_registry().inc("campaign.runs")
        report = CampaignReport(system=self.system.name)
        with span("campaign.run", system=self.system.name):
            report.spex_report = spex_report or self.run_spex()
            batches, template = self.generate(report.spex_report)
            report.misconfigurations_tested = sum(len(b) for b in batches)
            harness = self._harness()
            with span(
                "campaign.shard",
                system=self.system.name,
                batches=len(batches),
            ):
                verdict_lists = [
                    self._test_one_batch(harness, batch, template)
                    for batch in batches
                ]

        # One vulnerability per (parameter, reaction, rule): several
        # erroneous values of the same flavour expose the same hole.
        # Verdicts fold in batch order, so the dedup (and the
        # Vulnerability set) is deterministic.
        seen: set[tuple] = set()
        for batch, verdicts in zip(batches, verdict_lists):
            for misconf, verdict in zip(batch, verdicts):
                report.verdicts.append(verdict)
                if not verdict.is_vulnerability:
                    continue
                key = (
                    misconf.primary_param,
                    verdict.reaction.category,
                    misconf.rule,
                )
                if key in seen:
                    continue
                seen.add(key)
                report.vulnerabilities.append(
                    self._vulnerability_from(misconf, verdict)
                )
        return report

    def _test_one_batch(
        self, harness: InjectionHarness, batch, template
    ) -> list[InjectionVerdict]:
        """One batch through the harness, wrapped in its span."""
        get_registry().inc("campaign.batches")
        with span(
            "campaign.batch",
            system=self.system.name,
            param=batch.param,
            size=len(batch),
        ):
            return harness.test_batch(batch, template)

    def _harness(self) -> InjectionHarness:
        """The in-process harness, wired to this campaign's caches."""
        kwargs = {
            "launch_cache": self.launch_cache,
            "snapshot_cache": self.snapshot_cache,
            "engine": self.engine,
        }
        if self.harness_options is not None:
            kwargs["options"] = self.harness_options
        return InjectionHarness(self.system, **kwargs)

    def _case_alterations(self, spex_report: SpexReport, template):
        """Case-altered values for parameters whose dataflow shows
        case-SENSITIVE comparisons (the Figure 1 InitiatorName class:
        'TARGET' vs the required lowercase).  Guided alteration in the
        ConfErr spirit, targeted by inferred sensitivity."""
        from repro.core.constraints import BasicTypeConstraint
        from repro.lang.source import Location

        out = []
        basic_by_param = {
            c.param: c for c in spex_report.constraints.basic_types()
        }
        for param, sensitive in sorted(spex_report.case_sensitivity.items()):
            if not sensitive:
                continue
            current = template.get(param)
            if not current or current.upper() == current:
                continue
            constraint = basic_by_param.get(param) or BasicTypeConstraint(
                param, Location("<inferred>", 0, 0)
            )
            out.append(
                Misconfiguration(
                    settings=((param, current.upper()),),
                    constraint=constraint,
                    rule="case-alteration",
                    description=(
                        f"case-altered value for case-sensitively "
                        f"compared parameter {param}"
                    ),
                )
            )
        return out

    def _vulnerability_from(
        self, misconf: Misconfiguration, verdict: InjectionVerdict
    ) -> Vulnerability:
        startup = verdict.startup_result
        location = misconf.constraint.location
        if (
            startup is not None
            and startup.fault_location is not None
            and verdict.reaction.category is ReactionCategory.CRASH_HANG
        ):
            location = startup.fault_location
        return Vulnerability(
            system=self.system.name,
            param=misconf.primary_param,
            category=verdict.reaction.category,
            rule=misconf.rule,
            detail=verdict.reaction.detail,
            injected=misconf.settings,
            code_location=location,
        )

"""The campaign pipeline: batched multi-system sweeps with caching.

`CampaignPipeline` is the throughput layer over the per-system
`repro.inject.Campaign` primitive.  One pipeline run:

1. enumerates target systems through the registry's bulk API and
   keys the sweep by their inference fingerprints (sources +
   annotations; every campaign runs the paper's inference settings
   and the default generation rules);
2. fans the campaigns out over a pluggable executor (serial / thread
   / process) - the sweep's only fan-out: each campaign tests its own
   batches in order.  Every executor runs the one by-name shard
   function `_run_campaign`, through the executor's checkpointed map
   (`map_checkpointed`), which resumes a killed sweep from its
   finished campaigns - the one store of whole campaign results;
3. shares one `InferenceCache` so re-runs and engine comparisons
   never re-run SPEX inference for an unchanged program, and one
   launch store (`SnapshotCache`) so repeated launches of a config
   resume from its boot snapshot across campaigns and re-runs.

Every run executes every campaign: a re-run re-infers nothing and
resumes its launches from the boot records the first run left.

Usage::

    from repro.pipeline import CampaignPipeline

    pipeline = CampaignPipeline(executor="process")
    report = pipeline.run()              # cold: infer + inject everything
    again = pipeline.run()               # warm: cached inference and boots
    report.total_vulnerabilities()
    report.vulnerability_sets()          # identical across executors
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from repro.inject.campaign import Campaign, CampaignReport, Vulnerability
from repro.inject.harness import HARNESS_OPTIONS
from repro.inject.reactions import ReactionCategory
from repro.obs import get_registry, span
from repro.pipeline.cache import PipelineCaches
from repro.pipeline.executor import (
    Executor,
    map_checkpointed,
    resolve_executor,
    worker_caches,
)
from repro.resilience import CheckpointStore, FailedShard, RetryPolicy
from repro.runtime.interpreter import InterpreterOptions
from repro.store import content_key
from repro.systems.registry import get_system, iter_systems, system_names


@dataclass
class SystemRun:
    """One system's slot in a pipeline run."""

    name: str
    report: CampaignReport
    duration: float  # seconds spent producing the report; 0 if restored
    from_checkpoint: bool = False  # restored from a resumable-run store


@dataclass
class PipelineReport:
    """Aggregate outcome of one pipeline run."""

    runs: list[SystemRun]
    executor: str
    wall_time: float
    cache_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    # Campaigns that exhausted their retry budget under a RetryPolicy;
    # a degraded run reports them instead of aborting (their systems
    # are simply absent from `runs`).
    failed_shards: list[FailedShard] = field(default_factory=list)

    def total_misconfigurations(self) -> int:
        return sum(r.report.misconfigurations_tested for r in self.runs)

    def total_vulnerabilities(self) -> int:
        return sum(r.report.total() for r in self.runs)

    def counts_by_category(self) -> dict[ReactionCategory, int]:
        counts: dict[ReactionCategory, int] = {}
        for run in self.runs:
            for category, n in run.report.counts_by_category().items():
                counts[category] = counts.get(category, 0) + n
        return counts

    def vulnerability_sets(self) -> dict[str, frozenset[Vulnerability]]:
        """Per-system vulnerability sets - executor parity's currency:
        every executor must produce exactly these sets."""
        return {
            run.name: frozenset(run.report.vulnerabilities)
            for run in self.runs
        }

    def summary_dict(self) -> dict:
        """JSON-able aggregate (for manifests and the CLI footer)."""
        return {
            "executor": self.executor,
            "wall_time": self.wall_time,
            "systems": [
                {
                    "name": run.name,
                    "misconfigurations_tested": (
                        run.report.misconfigurations_tested
                    ),
                    "vulnerabilities": run.report.total(),
                    "duration": run.duration,
                    "from_checkpoint": run.from_checkpoint,
                }
                for run in self.runs
            ],
            "cache_stats": self.cache_stats,
            "failed_shards": [
                shard.summary_dict() for shard in self.failed_shards
            ],
        }


def _run_campaign(task: tuple[str, InterpreterOptions]) -> SystemRun:
    """The pipeline's one shard function, under every executor: run
    one system's campaign by name (a `SubjectSystem` never crosses a
    pickle boundary) on the shard's stores (`worker_caches()`)."""
    name, harness_options = task
    started = time.perf_counter()
    caches = worker_caches()
    report = Campaign(
        get_system(name),
        inference_cache=caches.inference,
        snapshot_cache=caches.snapshots,
        harness_options=harness_options,
    ).run()
    return SystemRun(name, report, time.perf_counter() - started)


@dataclass
class CampaignPipeline:
    """Fan injection campaigns out across systems, with caching.

    `systems` limits the sweep (None = every registered system);
    `executor` is a name ("serial", "thread", "process") or an
    `Executor` instance; `caches` may be shared between pipelines so
    e.g. a parity re-run under a different executor still reuses
    inference results and boot records.  Every run executes every
    campaign against those stores.
    """

    systems: list[str] | None = None
    executor: str | Executor = "serial"
    max_workers: int | None = None
    caches: PipelineCaches = field(default_factory=PipelineCaches)
    # Launch-engine override for every campaign of the sweep ("tree" |
    # "codegen"); each run turns it into the campaigns' harness
    # options once.  None keeps the default.
    engine: str | None = None
    # Resilience (see docs/ROBUSTNESS.md).  `retry_policy` supervises
    # campaign tasks: worker crashes and watchdog timeouts re-enqueue
    # with backoff, exhausted campaigns quarantine into
    # `PipelineReport.failed_shards`.  `chaos` is a
    # `repro.chaos.ChaosSchedule` injecting faults into campaign tasks.
    # `checkpoint` persists every finished campaign so a killed sweep
    # resumes from its last checkpoint with bit-identical reports.
    retry_policy: RetryPolicy | None = None
    chaos: object = None
    checkpoint: CheckpointStore | None = None

    def run(self, names: list[str] | None = None) -> PipelineReport:
        """Run the sweep; `names` overrides the configured targets for
        this call only."""
        chosen = resolve_executor(self.executor, self.max_workers)
        targets = names if names is not None else self.systems
        systems = list(iter_systems(targets))
        get_registry().inc("pipeline.runs")
        started = time.perf_counter()

        # (system name, spex key) for every target; the run key
        # content-addresses the sweep by its inference keys, so a
        # checkpoint can only resume the exact same spec.
        keyed = [
            (system.name, self.caches.inference.key_for(system))
            for system in systems
        ]
        run_key = content_key("pipeline", *sorted(key for _, key in keyed))
        harness_options = HARNESS_OPTIONS
        if self.engine is not None:
            harness_options = dataclasses.replace(
                HARNESS_OPTIONS, engine=self.engine
            )
        # A campaign's shard key is its system's name: the run key
        # already pins every inference key.
        mapped = map_checkpointed(
            chosen,
            _run_campaign,
            [(name, (name, harness_options)) for name, _ in keyed],
            SystemRun,
            label="pipeline",
            span_name="pipeline.execute",
            checkpoint=self.checkpoint,
            run_key=run_key,
            policy=self.retry_policy,
            chaos=self.chaos,
            caches=self.caches,
        )
        runs: list[SystemRun] = []
        for (_, spex_key), run, restored in zip(
            keyed, mapped.results, mapped.restored
        ):
            if run is None:  # quarantined campaign
                continue
            if restored:
                run = dataclasses.replace(
                    run, duration=0.0, from_checkpoint=True
                )
            self._warm_inference_cache(spex_key, run.report)
            runs.append(run)
        return PipelineReport(
            runs=runs,
            executor=chosen.name,
            wall_time=time.perf_counter() - started,
            cache_stats=self.caches.stats(),
            failed_shards=mapped.failures,
        )

    def _warm_inference_cache(
        self, spex_key: str, report: CampaignReport
    ) -> None:
        """Keep the parent-side inference cache warm even for results
        computed in worker processes, so a later in-process run (any
        executor) skips inference."""
        if report.spex_report is None:
            return
        if spex_key not in self.caches.inference:
            self.caches.inference.put(spex_key, report.spex_report)


__all__ = [
    "CampaignPipeline",
    "PipelineReport",
    "SystemRun",
    "system_names",
]

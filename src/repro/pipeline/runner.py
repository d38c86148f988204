"""The campaign pipeline: batched multi-system sweeps with caching.

`CampaignPipeline` is the throughput layer over the per-system
`repro.inject.Campaign` primitive.  One pipeline run:

1. enumerates target systems through the registry's bulk API;
2. serves whole campaigns from the campaign cache when the content
   fingerprint (sources + annotations + options + generation rules)
   is unchanged;
3. fans the remaining campaigns out over a pluggable executor
   (serial / thread / process) - the sweep's only fan-out: each
   campaign tests its own batches in order;
4. shares one `InferenceCache` so ablation sweeps over harness or
   generator settings never re-run SPEX inference for an unchanged
   program, and one `LaunchCache` so identical interpreter launches
   (same system, rendered config, requests, interpreter options) run
   once across campaigns and re-runs.

Usage::

    from repro.pipeline import CampaignPipeline

    pipeline = CampaignPipeline(executor="process")
    report = pipeline.run()              # cold: infer + inject everything
    again = pipeline.run()               # warm: served from the caches
    report.total_vulnerabilities()
    report.vulnerability_sets()          # identical across executors
"""

from __future__ import annotations

import dataclasses
import pickle
import time
from dataclasses import dataclass, field

from repro.core import SpexOptions
from repro.inject.campaign import Campaign, CampaignReport, Vulnerability
from repro.inject.generators import GeneratorRegistry, default_generators
from repro.inject.reactions import ReactionCategory
from repro.obs import get_registry, span
from repro.pipeline.cache import PipelineCaches, campaign_fingerprint
from repro.pipeline.executor import (
    Executor,
    ProcessExecutor,
    resolve_executor,
    worker_caches,
)
from repro.resilience import CheckpointStore, FailedShard, RetryPolicy
from repro.systems.registry import get_system, iter_systems, system_names


@dataclass
class SystemRun:
    """One system's slot in a pipeline run."""

    name: str
    report: CampaignReport
    duration: float  # seconds spent producing the report; 0 if cached
    from_cache: bool = False
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

    def report_for(self, name: str) -> CampaignReport:
        for run in self.runs:
            if run.name == name:
                return run.report
        raise KeyError(name)

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

    def cached_count(self) -> int:
        return sum(1 for run in self.runs if run.from_cache)

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
                    "from_cache": run.from_cache,
                    "from_checkpoint": run.from_checkpoint,
                }
                for run in self.runs
            ],
            "cache_stats": self.cache_stats,
            "failed_shards": [
                shard.summary_dict() for shard in self.failed_shards
            ],
        }


def _save_campaign_checkpoint(
    ckpt_spec: tuple[str, str, str] | None, report: CampaignReport
) -> None:
    """Persist one finished campaign report, keyed by the
    campaign fingerprint within the sweep's run key.  Runs inside the
    task (worker or inline), so completed campaigns survive a mid-run
    kill of the sweep."""
    if ckpt_spec is None:
        return
    root, run_key, shard_key = ckpt_spec
    CheckpointStore(root).save(run_key, shard_key, pickle.dumps(report))
    get_registry().inc("resilience.checkpoint_saves")


def _run_campaign_by_name(
    task: tuple[str, SpexOptions, str | None, tuple[str, str, str] | None]
) -> SystemRun:
    """Process-pool entry point: rebuild the system in the worker (the
    task crosses a pickle boundary, the `SubjectSystem` does not)."""
    name, spex_options, engine, ckpt_spec = task
    started = time.perf_counter()
    caches = worker_caches()
    report = Campaign(
        get_system(name),
        spex_options=spex_options,
        launch_cache=caches.launches,
        snapshot_cache=caches.snapshots,
        engine=engine,
    ).run()
    _save_campaign_checkpoint(ckpt_spec, report)
    return SystemRun(name, report, time.perf_counter() - started)


@dataclass
class CampaignPipeline:
    """Fan injection campaigns out across systems, with caching.

    `systems` limits the sweep (None = every registered system);
    `executor` is a name ("serial", "thread", "process") or an
    `Executor` instance; `caches` may be shared between pipelines so
    e.g. a parity re-run under a different executor still reuses
    inference results.  `reuse_campaigns=False` disables the
    whole-campaign cache (inference stays cached) - ablation sweeps
    that vary harness behaviour want exactly that.
    """

    systems: list[str] | None = None
    spex_options: SpexOptions = field(default_factory=SpexOptions)
    generators: GeneratorRegistry = field(default_factory=default_generators)
    executor: str | Executor = "serial"
    max_workers: int | None = None
    caches: PipelineCaches = field(default_factory=PipelineCaches)
    reuse_campaigns: bool = True
    # Launch-engine override for every campaign of the sweep ("tree" |
    # "codegen"); a plain string, so it survives the process-executor
    # pickle boundary.  None keeps the default.
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

    def run(
        self,
        names: list[str] | None = None,
        executor: str | Executor | None = None,
    ) -> PipelineReport:
        """Run the sweep; `names`/`executor` override the configured
        targets/strategy for this call only."""
        chosen = resolve_executor(
            self.executor if executor is None else executor, self.max_workers
        )
        targets = names if names is not None else self.systems
        systems = list(iter_systems(targets))
        get_registry().inc("pipeline.runs")
        started = time.perf_counter()

        runs: dict[str, SystemRun] = {}
        # (system name, spex key, campaign key) for every target; the
        # run key content-addresses the sweep, so a checkpoint can only
        # resume the exact same spec.
        keyed: list[tuple[str, str, str]] = []
        for system in systems:
            spex_key = self.caches.inference.key_for(
                system, self.spex_options
            )
            campaign_key = campaign_fingerprint(
                spex_key, self.generators.roster()
            )
            keyed.append((system.name, spex_key, campaign_key))
        run_key = "pipeline|" + "|".join(
            sorted(key for _, _, key in keyed)
        )

        pending: list[tuple[str, str, str]] = []
        for name, spex_key, campaign_key in keyed:
            cached = (
                self.caches.campaigns.get(campaign_key)
                if self.reuse_campaigns
                else None
            )
            if cached is not None:
                runs[name] = SystemRun(name, cached, 0.0, from_cache=True)
                continue
            restored = self._restore_checkpoint(run_key, campaign_key)
            if restored is not None:
                if self.reuse_campaigns:
                    self.caches.campaigns.put(campaign_key, restored)
                self._warm_inference_cache(spex_key, restored)
                runs[name] = SystemRun(
                    name, restored, 0.0, from_checkpoint=True
                )
                continue
            pending.append((name, spex_key, campaign_key))

        failed_shards: list[FailedShard] = []
        if pending:
            with span(
                "pipeline.execute",
                executor=chosen.name,
                campaigns=len(pending),
            ):
                executed, failures = self._execute(chosen, pending, run_key)
            for (name, spex_key, campaign_key), run in zip(
                pending, executed
            ):
                if run is None:  # quarantined campaign
                    continue
                if self.reuse_campaigns:
                    self.caches.campaigns.put(campaign_key, run.report)
                self._warm_inference_cache(spex_key, run.report)
                runs[name] = run
            # Re-anchor quarantine records on the system's name, not
            # its position in this run's pending list.
            for failure in failures:
                failed_shards.append(
                    dataclasses.replace(
                        failure, label=pending[failure.index][0]
                    )
                )

        ordered = [
            runs[system.name]
            for system in systems
            if system.name in runs
        ]
        return PipelineReport(
            runs=ordered,
            executor=chosen.name,
            wall_time=time.perf_counter() - started,
            cache_stats=self.caches.stats(),
            failed_shards=failed_shards,
        )

    # -- execution strategies ------------------------------------------------

    def _restore_checkpoint(
        self, run_key: str, campaign_key: str
    ) -> CampaignReport | None:
        """A checkpointed campaign report, or None (no store, missing
        shard, or a payload that no longer unpickles — schema drift
        between the writer's code and ours reads as a plain miss)."""
        if self.checkpoint is None:
            return None
        blob = self.checkpoint.load(run_key, campaign_key)
        if blob is None:
            return None
        try:
            report = pickle.loads(blob)
        except Exception:
            return None
        if not isinstance(report, CampaignReport):
            return None
        get_registry().inc("resilience.checkpoint_hits")
        return report

    def _execute(
        self,
        executor: Executor,
        pending: list[tuple[str, str, str]],
        run_key: str,
    ) -> tuple[list, list[FailedShard]]:
        """Fan the pending campaigns out under the configured
        resilience mode: supervised (`retry_policy`), chaos-exposed
        (with no policy a fault aborts the sweep - the checkpoint store
        is what a resume recovers from), or plain."""
        ckpt_root = (
            str(self.checkpoint.root) if self.checkpoint is not None else None
        )
        ckpt_specs = [
            (ckpt_root, run_key, campaign_key)
            if ckpt_root is not None
            else None
            for _, _, campaign_key in pending
        ]
        if isinstance(executor, ProcessExecutor):
            self._check_process_compatible()
            # Only names cross the pickle boundary.
            task_fn = _run_campaign_by_name
            tasks = [
                (name, self.spex_options, self.engine, spec)
                for (name, _, _), spec in zip(pending, ckpt_specs)
            ]
        else:
            def task_fn(task):
                name, ckpt_spec = task
                run = self._run_one(name)
                _save_campaign_checkpoint(ckpt_spec, run.report)
                return run

            tasks = [
                (name, spec) for (name, _, _), spec in zip(pending, ckpt_specs)
            ]
        supervised = executor.map_resilient(
            task_fn,
            tasks,
            self.retry_policy,
            chaos=self.chaos,
            label="pipeline",
            caches=self.caches,
        )
        return supervised.results, supervised.failures

    def _run_one(self, name: str) -> SystemRun:
        """In-process task (serial and thread executors): campaigns
        share the pipeline's inference and launch caches directly."""
        started = time.perf_counter()
        campaign = Campaign(
            get_system(name),
            generators=self.generators,
            spex_options=self.spex_options,
            inference_cache=self.caches.inference,
            launch_cache=self.caches.launches,
            snapshot_cache=self.caches.snapshots,
            engine=self.engine,
        )
        report = campaign.run()
        return SystemRun(name, report, time.perf_counter() - started)

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

    def _check_process_compatible(self) -> None:
        if self.generators.roster() != default_generators().roster():
            raise ValueError(
                "the process executor rebuilds campaigns in worker "
                "processes and cannot ship a customised generator "
                "registry; use the serial or thread executor"
            )


def run_pipeline(
    systems: list[str] | None = None,
    executor: str | Executor = "serial",
    **kwargs,
) -> PipelineReport:
    """One-shot convenience over `CampaignPipeline`."""
    return CampaignPipeline(
        systems=systems, executor=executor, **kwargs
    ).run()


__all__ = [
    "CampaignPipeline",
    "PipelineReport",
    "SystemRun",
    "run_pipeline",
    "system_names",
]

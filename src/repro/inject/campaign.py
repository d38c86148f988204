"""Full injection campaign over one system: SPEX constraints in,
vulnerability report out (the per-system row of Table 5).

`Campaign` is the single-system primitive; multi-system sweeps go
through `repro.pipeline.CampaignPipeline`, which fans campaigns out
across executors and shares the inference cache between them.  A
`Campaign` constructed with an `inference_cache` participates in that
sharing; without one it re-infers on every `run_spex()` call.

A campaign's own injection loop fans out too: `run()` shards the
per-parameter `MisconfigurationBatch`es over the same executor
abstraction the pipeline uses one layer up (serial / thread /
process), then folds verdicts back in deterministic batch order, so
the (parameter, reaction, rule) dedup - and therefore the
`Vulnerability` set - is bit-identical to the serial loop.  A shared
`launch_cache` deduplicates interpreter runs across the shards.

Executor machinery is imported lazily inside `run()`:
`repro.pipeline` sits *above* this module in the layer map, and a
module-level import would be circular.
"""

from __future__ import annotations

import hashlib
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
    from repro.pipeline.executor import Executor
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
    # How the injection loop itself is sharded: an executor name
    # ("serial" / "thread" / "process") or instance, applied to the
    # per-parameter misconfiguration batches.
    executor: "str | Executor" = "serial"
    max_workers: int | None = None
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
    # banned on the process-executor path - use `engine` there.
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

    def run(
        self,
        spex_report: SpexReport | None = None,
        executor: "str | Executor | None" = None,
    ) -> CampaignReport:
        """Run the campaign; `executor` overrides the configured batch
        sharding strategy for this call only."""
        from repro.pipeline.executor import ProcessExecutor, resolve_executor

        chosen = resolve_executor(
            self.executor if executor is None else executor, self.max_workers
        )
        get_registry().inc("campaign.runs")
        report = CampaignReport(system=self.system.name)
        with span("campaign.run", system=self.system.name):
            report.spex_report = spex_report or self.run_spex()
            batches, template = self.generate(report.spex_report)
            report.misconfigurations_tested = sum(len(b) for b in batches)

            if isinstance(chosen, ProcessExecutor) and len(batches) > 1:
                with span(
                    "campaign.shard",
                    system=self.system.name,
                    batches=len(batches),
                    executor="process",
                ):
                    verdict_lists = self._test_batches_in_processes(
                        chosen, report.spex_report, batches
                    )
            else:
                harness = self._harness()
                with span(
                    "campaign.shard",
                    system=self.system.name,
                    batches=len(batches),
                ):
                    verdict_lists = chosen.map(
                        lambda batch: self._test_one_batch(
                            harness, batch, template
                        ),
                        batches,
                    )

        # One vulnerability per (parameter, reaction, rule): several
        # erroneous values of the same flavour expose the same hole.
        # Verdicts fold back in deterministic batch order, so the dedup
        # (and the Vulnerability set) never depends on scheduling.
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

    def _test_batches_in_processes(
        self, executor, spex_report: SpexReport, batches
    ) -> list[list[InjectionVerdict]]:
        """Shard batches across worker processes.

        Tasks cross a pickle boundary, so they carry (system name,
        spex options, batch index) and workers rebuild the campaign
        context; `_seed_batch_workers` pre-plants this campaign's
        inference result and launch cache in module state so forked
        workers inherit them instead of re-inferring (under a spawn
        start method the seed is simply absent and workers recompute).
        """
        if self.generators.roster() != default_generators().roster():
            raise ValueError(
                "the process executor rebuilds campaign context in "
                "worker processes and cannot ship a customised "
                "generator registry; use the serial or thread executor"
            )
        if self.harness_options is not None:
            raise ValueError(
                "the process executor rebuilds the harness with default "
                "interpreter options in worker processes and cannot ship "
                "a customised InterpreterOptions; use the serial or "
                "thread executor"
            )
        # Boot snapshots the parent already captured travel to fork
        # workers through shared memory: one segment per snapshot, a
        # tiny manifest through the seed store.  Workers map the
        # segments instead of receiving per-task pickles; the parent
        # unlinks everything when the map completes.
        from repro.pipeline.cache import (
            LaunchCache,
            PipelineCaches,
            SnapshotCache,
        )
        from repro.runtime.snapshot import SnapshotPool

        pool = SnapshotPool()
        if self.snapshot_cache is not None:
            for key, (boundary, blob) in sorted(
                self.snapshot_cache.export_snapshots().items()
            ):
                pool.publish(key, blob, boundary)
        seed_key = _seed_batch_workers(
            self.system.name,
            self.spex_options,
            spex_report,
            self.launch_cache,
            pool.manifest,
        )
        # Each task carries a content hash of its batch as well as its
        # index: a worker that rebuilt a *different* batch list
        # (possible only under a spawn start method, where the seed is
        # absent and re-inference runs under a fresh hash seed) must
        # fail loudly rather than test the wrong injections.
        use_launch_cache = self.launch_cache is not None
        tasks = [
            (
                self.system.name,
                self.spex_options,
                index,
                _batch_digest(batch),
                use_launch_cache,
                self.engine,
            )
            for index, batch in enumerate(batches)
        ]
        # Worker store deltas fold into this campaign's own caches
        # (a disabled layer folds into a throwaway).
        stores = PipelineCaches(
            launches=(
                self.launch_cache
                if self.launch_cache is not None
                else LaunchCache()
            ),
            snapshots=(
                self.snapshot_cache
                if self.snapshot_cache is not None
                else SnapshotCache()
            ),
        )
        try:
            return executor.map_resilient(
                _test_batch_by_name, tasks, caches=stores
            ).results
        finally:
            _WORKER_SEEDS.pop(seed_key, None)
            pool.close()

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


# -- process-executor batch workers -----------------------------------------
#
# Batch tasks are dispatched by (system name, spex options, batch index)
# and the worker rebuilds everything else.  Two module-level stores make
# that cheap:
#
# * `_WORKER_SEEDS` is written by the *parent* right before the pool
#   forks: fork-started workers inherit the parent's inference result
#   and launch cache entries for free.  (Pure seed data - a worker that
#   misses it recomputes the same values.)
# * `_WORKER_CONTEXTS` is each worker process's private memo of the
#   rebuilt (harness, batches, template) context, so a worker serving
#   many batches of one campaign pays the rebuild once.  The harness
#   runs on the worker's stores (`worker_caches()`), whose counters
#   ride home in each shard's envelope.

_WORKER_SEEDS: dict[tuple[str, str], tuple] = {}
_WORKER_CONTEXTS: dict[tuple[str, str], tuple] = {}


def _batch_digest(batch) -> str:
    """Content hash of one batch's full injection roster (settings and
    rules, in order) - the parent/worker alignment check's currency."""
    payload = repr(
        (batch.param, [(m.settings, m.rule) for m in batch])
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _seed_batch_workers(
    name: str,
    spex_options: SpexOptions,
    spex_report,
    launch_cache,
    snapshot_manifest: dict | None = None,
) -> tuple[str, str]:
    key = (name, spex_options.fingerprint())
    _WORKER_SEEDS[key] = (spex_report, launch_cache, snapshot_manifest)
    return key


def _worker_context(
    name: str,
    spex_options: SpexOptions,
    use_launch_cache: bool,
    engine: str | None = None,
):
    from repro.pipeline.executor import worker_caches
    from repro.runtime.snapshot import SnapshotPool
    from repro.systems.registry import get_system

    key = (name, spex_options.fingerprint(), use_launch_cache, engine)
    context = _WORKER_CONTEXTS.get(key)
    if context is None:
        seed = _WORKER_SEEDS.get(key[:2])
        spex_report, parent_launches, manifest = (
            seed if seed else (None, None, None)
        )
        campaign = Campaign(get_system(name), spex_options=spex_options)
        if spex_report is None:
            spex_report = campaign.run_spex()
        caches = worker_caches()
        # The parent disabled launch caching (memory bound, cold timing
        # measurements): workers must honour that.
        launch_cache = caches.launches if use_launch_cache else None
        if launch_cache is not None and parent_launches is not None:
            launch_cache.preload(parent_launches)
        # Boot snapshots the parent published arrive through its
        # shared-memory pool; a vanished segment just boots cold.
        for cache_key, entry in (manifest or {}).items():
            blob = SnapshotPool.fetch(entry)
            if blob is not None:
                caches.snapshots.preload_snapshot(cache_key, entry[2], blob)
        batches, template = campaign.generate(spex_report)
        harness = InjectionHarness(
            campaign.system,
            launch_cache=launch_cache,
            snapshot_cache=caches.snapshots,
            engine=engine,
        )
        context = (harness, batches, template)
        _WORKER_CONTEXTS[key] = context
    return context


def _test_batch_by_name(task) -> list[InjectionVerdict]:
    """Process-pool entry point for one `MisconfigurationBatch`.

    Returns the batch's verdicts; their startup results carry
    effective config values, never an interpreter, so they cross the
    pickle boundary small.  The harness uses the worker's stores, so
    their counters ride home in the shard's envelope.
    """
    name, spex_options, batch_index, digest, use_launch_cache, engine = task
    harness, batches, template = _worker_context(
        name, spex_options, use_launch_cache, engine
    )
    batch = batches[batch_index]
    if _batch_digest(batch) != digest:
        raise RuntimeError(
            f"worker rebuilt a divergent batch list for {name}: batch "
            f"{batch_index} ({batch.param!r}x{len(batch)}) does not "
            "match the injections the parent dispatched (re-inference "
            "is sensitive to the interpreter hash seed; use a fork "
            "start method or set PYTHONHASHSEED)"
        )
    get_registry().inc("campaign.batches")
    return harness.test_batch(batch, template)

"""Fleet-scale config validation: shard a synthetic corpus over the
pipeline executors.

`run_fleet` is the third pillar's throughput layer (infer -> inject ->
**check**): per system it compiles (or fetches, content-addressed) the
constraint checker, then streams the seeded synthetic corpus through
it in chunks, fanned out over the same serial / thread / process
executor abstraction the campaign pipeline uses.  Each config's
outcome is compared against the corpus's planted ground truth, giving
per-system precision/recall (`repro.core.accuracy.PrecisionRecall`),
and a seeded sample of flagged configs is ground-truthed against the
injection harness: a flag only counts as *confirmed* when the
interpreter observably misbehaves (or pinpoints the mistake) under the
very same config.

Process sharding follows the campaign pipeline's honesty rules: tasks
carry (system name, options, chunk range, pool digest), workers
regenerate their shard deterministically and verify the digest before
validating, and fork-started workers inherit the parent's inference
result through a pre-fork seed so they never re-infer.

Usage::

    from repro.checker import run_fleet

    report = run_fleet(size=1500, executor="process")
    report.total_configs, report.throughput()
    for result in report.results:
        print(result.name, result.scores.precision, result.scores.recall)
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from dataclasses import dataclass, field

from repro.core.accuracy import PrecisionRecall, precision_recall
from repro.core.engine import SpexOptions
from repro.checker.compile import CompiledChecker, checker_for_system
from repro.checker.corpus import (
    DEFAULT_MISTAKE_RATE,
    SyntheticConfig,
    corpus_pool,
    generate_config,
    iter_corpus,
    mistake_mix,
    pool_digest,
)
from repro.checker.validate import validate_config
from repro.obs import get_registry, span
from repro.resilience import CheckpointStore, FailedShard, RetryPolicy

DEFAULT_CHUNK_SIZE = 256


@dataclass(frozen=True)
class ConfigOutcome:
    """What the checker said about one fleet member (compact: this is
    what crosses process boundaries, thousands at a time)."""

    index: int
    config_id: str
    planted_kind: str | None
    flagged: bool
    errors: int
    warnings: int
    error_kinds: tuple[str, ...]

    @property
    def is_mistaken(self) -> bool:
        return self.planted_kind is not None


@dataclass(frozen=True)
class ChunkResult:
    """One validated corpus chunk: its outcomes, in index order, and
    the seconds spent validating them."""

    outcomes: list[ConfigOutcome]
    duration: float


@dataclass
class SystemFleetResult:
    """One system's slice of a fleet run."""

    name: str
    corpus_size: int
    planted: int
    flagged: int
    errors: int
    warnings: int
    by_kind: dict[str, int]
    scores: PrecisionRecall
    duration: float  # summed chunk-validation time (CPU-side)
    checker_from_cache: bool = False

    def summary_dict(self) -> dict:
        return {
            "name": self.name,
            "corpus_size": self.corpus_size,
            "planted": self.planted,
            "flagged": self.flagged,
            "errors": self.errors,
            "warnings": self.warnings,
            "by_kind": dict(sorted(self.by_kind.items())),
            "scores": self.scores.summary_dict(),
            "duration": self.duration,
            "checker_from_cache": self.checker_from_cache,
        }


@dataclass
class AgreementReport:
    """Interpreter ground-truthing of a flagged-config sample."""

    sampled: int = 0
    confirmed: int = 0  # interpreter misbehaved or pinpointed the flag
    refuted: int = 0  # interpreter accepted the config silently
    details: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def confirmed_fraction(self) -> float:
        return self.confirmed / self.sampled if self.sampled else 0.0

    def summary_dict(self) -> dict:
        return {
            "sampled": self.sampled,
            "confirmed": self.confirmed,
            "refuted": self.refuted,
            "confirmed_fraction": self.confirmed_fraction,
            "details": [list(d) for d in self.details],
        }


@dataclass
class FleetReport:
    """Aggregate outcome of one fleet validation run."""

    results: list[SystemFleetResult]
    executor: str
    # Generation + validation wall clock; the optional interpreter
    # agreement phase is deliberately outside it (see `run_fleet`).
    wall_time: float
    seed: int
    mistake_rate: float
    chunk_size: int
    cache_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    agreement: AgreementReport | None = None
    # Shards that exhausted their retry budget under a RetryPolicy; a
    # degraded run reports them instead of aborting (their configs are
    # simply absent from the folded tallies).
    failed_shards: list[FailedShard] = field(default_factory=list)

    @property
    def total_configs(self) -> int:
        return sum(r.corpus_size for r in self.results)

    def total_flagged(self) -> int:
        return sum(r.flagged for r in self.results)

    def throughput(self) -> float:
        """Configs validated per wall-clock second."""
        return self.total_configs / self.wall_time if self.wall_time else 0.0

    def scores(self) -> PrecisionRecall:
        total = PrecisionRecall()
        for result in self.results:
            total = total + result.scores
        return total

    def result_for(self, name: str) -> SystemFleetResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(name)

    def summary_dict(self) -> dict:
        return {
            "executor": self.executor,
            "wall_time": self.wall_time,
            "seed": self.seed,
            "mistake_rate": self.mistake_rate,
            "chunk_size": self.chunk_size,
            "total_configs": self.total_configs,
            "throughput": self.throughput(),
            "scores": self.scores().summary_dict(),
            "systems": [r.summary_dict() for r in self.results],
            "cache_stats": self.cache_stats,
            "agreement": (
                self.agreement.summary_dict() if self.agreement else None
            ),
            "failed_shards": [
                shard.summary_dict() for shard in self.failed_shards
            ],
        }


@dataclass
class _SystemContext:
    """Parent-side per-system state for one fleet run."""

    system: object
    checker: CompiledChecker
    pool: dict
    digest: str
    mix: dict[str, float]
    template: object
    from_cache: bool


def run_fleet(
    systems: list[str] | None = None,
    size: int = 200,
    seed: int = 0,
    mistake_rate: float = DEFAULT_MISTAKE_RATE,
    executor: str = "serial",
    max_workers: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    spex_options: SpexOptions | None = None,
    caches=None,
    agreement_sample: int = 0,
    engine: str | None = None,
    retry_policy: RetryPolicy | None = None,
    chaos=None,
    checkpoint: CheckpointStore | None = None,
) -> FleetReport:
    """Validate `size` synthetic configs per target system.

    Diagnostics are deterministic for a fixed (seed, systems, size,
    mistake_rate) regardless of executor: chunk results fold back in
    submission order and each config is a pure function of its index.

    `retry_policy` supervises chunk execution (worker-crash recovery,
    watchdog timeouts, quarantine into `failed_shards`); `chaos` is a
    `repro.chaos.ChaosSchedule` injecting faults into chunk tasks;
    `checkpoint` persists every completed chunk so a killed run
    resumes from its last checkpoint — the run key content-addresses
    the full spec (systems, size, seed, rates, option fingerprints,
    pool digests), so a checkpoint can never leak across specs.
    """
    from repro.pipeline.cache import PipelineCaches
    from repro.pipeline.executor import resolve_executor
    from repro.systems.registry import iter_systems

    caches = caches if caches is not None else PipelineCaches()
    options = spex_options or SpexOptions()
    chosen = resolve_executor(executor, max_workers)
    chunk_size = max(1, chunk_size)
    get_registry().inc("fleet.runs")
    started = time.perf_counter()

    contexts: dict[str, _SystemContext] = {}
    tasks: list[tuple[str, int, int]] = []  # (system, start, count)
    with span("fleet.compile"):
        for system in iter_systems(systems):
            before = caches.checkers.stats.snapshot()
            checker = checker_for_system(system, options, caches=caches)
            from_cache = caches.checkers.stats.hits > before["hits"]
            # peek, not get: compilation already populated this entry,
            # and the footer's hit counters must reflect avoided
            # inference runs, not this bookkeeping read.
            spex_report = caches.inference.peek(
                caches.inference.key_for(system, options)
            )
            if spex_report is None:  # pragma: no cover - cache contract
                raise RuntimeError(
                    f"inference result for {system.name} missing after "
                    "checker compilation"
                )
            pool = corpus_pool(spex_report, system)
            contexts[system.name] = _SystemContext(
                system=system,
                checker=checker,
                pool=pool,
                digest=pool_digest(pool),
                mix=mistake_mix(system),
                template=system.template_ar(),
                from_cache=from_cache,
            )
            for start in range(0, size, chunk_size):
                tasks.append(
                    (system.name, start, min(chunk_size, size - start))
                )

    run_key = _fleet_run_key(
        contexts, size, seed, mistake_rate, chunk_size, options
    )
    restored: dict[int, ChunkResult] = {}
    pending: list[tuple[int, tuple[str, int, int]]] = []
    if checkpoint is not None:
        registry = get_registry()
        for position, task in enumerate(tasks):
            blob = checkpoint.load(run_key, _task_shard_key(task))
            decoded = _decode_chunk_payload(blob) if blob else None
            if decoded is not None:
                restored[position] = decoded
                registry.inc("resilience.checkpoint_hits")
            else:
                pending.append((position, task))
    else:
        pending = list(enumerate(tasks))

    failed_shards: list[FailedShard] = []
    executed: dict[int, ChunkResult] = {}
    if pending:
        pending_tasks = [task for _, task in pending]
        with span(
            "fleet.validate", executor=chosen.name, chunks=len(pending_tasks)
        ):
            chunk_results, failures = _run_chunks(
                chosen,
                contexts,
                pending_tasks,
                options,
                seed,
                mistake_rate,
                caches,
                retry_policy,
                chaos,
                checkpoint,
                run_key,
            )
        for (position, task), result in zip(pending, chunk_results):
            if result is not None:
                executed[position] = result
        # Re-anchor quarantine records on the shard's stable identity
        # (system:start), not its position in this run's pending list.
        for failure in failures:
            _, task = pending[failure.index]
            failed_shards.append(
                dataclasses.replace(failure, label=_task_shard_key(task))
            )

    # Fold chunk results back in submission order (determinism) while
    # streaming per-system tallies instead of keeping every outcome.
    folds: dict[str, _SystemFold] = {
        name: _SystemFold() for name in contexts
    }
    for position, (name, _, _) in enumerate(tasks):
        result = restored.get(position) or executed.get(position)
        if result is not None:
            folds[name].absorb(result)

    results = [
        fold.result(name, contexts[name].from_cache)
        for name, fold in folds.items()
    ]
    # Throughput is a *checking* claim: stop the clock before the
    # optional interpreter ground-truthing, whose harness launches
    # would otherwise dominate small fleets' configs/s.
    wall_time = time.perf_counter() - started
    agreement = None
    if agreement_sample > 0:
        with span("fleet.agreement", sample=agreement_sample):
            agreement = ground_truth_agreement(
                contexts,
                folds,
                seed,
                mistake_rate,
                agreement_sample,
                caches,
                engine=engine,
            )
    return FleetReport(
        results=results,
        executor=chosen.name,
        wall_time=wall_time,
        seed=seed,
        mistake_rate=mistake_rate,
        chunk_size=chunk_size,
        cache_stats=caches.stats(),
        agreement=agreement,
        failed_shards=failed_shards,
    )


# -- checkpointing ------------------------------------------------------------


def _fleet_run_key(
    contexts: dict[str, _SystemContext],
    size: int,
    seed: int,
    mistake_rate: float,
    chunk_size: int,
    options: SpexOptions,
) -> str:
    """Content-address the full run spec: any change to the targeted
    systems, corpus shape, seeds, inference options or mistake pools
    yields a different key, so stale checkpoints can never fold in."""
    digests = "|".join(
        f"{name}:{contexts[name].digest}" for name in sorted(contexts)
    )
    return (
        f"fleet|{size}|{seed}|{mistake_rate!r}|{chunk_size}|"
        f"{options.fingerprint()}|{digests}"
    )


def _task_shard_key(task: tuple[str, int, int]) -> str:
    name, start, count = task
    return f"{name}:{start}:{count}"


def _encode_chunk_payload(result: ChunkResult) -> bytes:
    """JSON-frame one chunk's outcomes.  Floats round-trip exactly
    through json (repr-based), so a resumed fold is bit-identical."""
    return json.dumps(
        {
            "duration": result.duration,
            "outcomes": [
                [
                    o.index,
                    o.config_id,
                    o.planted_kind,
                    o.flagged,
                    o.errors,
                    o.warnings,
                    list(o.error_kinds),
                ]
                for o in result.outcomes
            ],
        },
        sort_keys=True,
    ).encode("utf-8")


def _decode_chunk_payload(blob: bytes | None) -> ChunkResult | None:
    """Inverse of `_encode_chunk_payload`; None on any malformed blob
    (the store already digest-verifies, this guards schema drift)."""
    if blob is None:
        return None
    try:
        data = json.loads(blob.decode("utf-8"))
        outcomes = [
            ConfigOutcome(
                index=index,
                config_id=config_id,
                planted_kind=planted_kind,
                flagged=flagged,
                errors=errors,
                warnings=warnings,
                error_kinds=tuple(error_kinds),
            )
            for (
                index,
                config_id,
                planted_kind,
                flagged,
                errors,
                warnings,
                error_kinds,
            ) in data["outcomes"]
        ]
        return ChunkResult(outcomes, data["duration"])
    except (KeyError, TypeError, ValueError):
        return None


def _save_chunk_checkpoint(
    checkpoint: CheckpointStore | None,
    run_key: str,
    task: tuple[str, int, int],
    result: ChunkResult,
) -> None:
    if checkpoint is None:
        return
    checkpoint.save(
        run_key, _task_shard_key(task), _encode_chunk_payload(result)
    )
    get_registry().inc("resilience.checkpoint_saves")


def _run_chunks(
    executor,
    contexts: dict[str, _SystemContext],
    tasks: list[tuple[str, int, int]],
    options: SpexOptions,
    seed: int,
    mistake_rate: float,
    caches,
    retry_policy: RetryPolicy | None,
    chaos,
    checkpoint: CheckpointStore | None,
    run_key: str,
) -> tuple[list, list[FailedShard]]:
    """Fan the chunks out.  In-process chunks share the parent's
    compiled checkers directly; a process pool gets tasks by name (see
    the worker section below).  Either way each chunk checkpoints
    inside its own task, so completed chunks survive a mid-run kill."""
    from repro.pipeline.executor import ProcessExecutor

    seed_keys = []
    if isinstance(executor, ProcessExecutor) and len(tasks) > 1:
        task_fn = _validate_chunk_by_name
        options_fp = options.fingerprint()
        for name, context in contexts.items():
            key = (name, options_fp)
            _FLEET_SEEDS[key] = caches.inference.peek(
                caches.inference.key_for(context.system, options)
            )
            seed_keys.append(key)
        ckpt_spec = (
            (str(checkpoint.root), run_key) if checkpoint is not None else None
        )
        shards = [
            (
                name,
                options,
                seed,
                mistake_rate,
                start,
                count,
                contexts[name].digest,
                tuple(sorted(contexts[name].mix.items())),
                ckpt_spec,
            )
            for name, start, count in tasks
        ]
    else:

        def task_fn(task):
            result = _validate_chunk(
                contexts[task[0]], task, seed, mistake_rate
            )
            _save_chunk_checkpoint(checkpoint, run_key, task, result)
            return result

        shards = tasks
    try:
        supervised = executor.map_resilient(
            task_fn,
            shards,
            retry_policy,
            chaos=chaos,
            label="fleet",
            caches=caches,
        )
    finally:
        for key in seed_keys:
            _FLEET_SEEDS.pop(key, None)
    return supervised.results, supervised.failures


class _SystemFold:
    """Streaming accumulator for one system's chunk results."""

    def __init__(self) -> None:
        self.corpus_size = 0
        self.planted = 0
        self.errors = 0
        self.warnings = 0
        self.by_kind: dict[str, int] = {}
        self.duration = 0.0
        self.flagged_ids: list[str] = []
        self.planted_ids: list[str] = []
        self.flagged_mistaken: list[ConfigOutcome] = []

    def absorb(self, result: ChunkResult) -> None:
        self.duration += result.duration
        for outcome in result.outcomes:
            self.corpus_size += 1
            self.errors += outcome.errors
            self.warnings += outcome.warnings
            for kind in outcome.error_kinds:
                self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
            if outcome.is_mistaken:
                self.planted += 1
                self.planted_ids.append(outcome.config_id)
            if outcome.flagged:
                self.flagged_ids.append(outcome.config_id)
                if outcome.is_mistaken:
                    self.flagged_mistaken.append(outcome)

    def result(self, name: str, from_cache: bool) -> SystemFleetResult:
        return SystemFleetResult(
            name=name,
            corpus_size=self.corpus_size,
            planted=self.planted,
            flagged=len(self.flagged_ids),
            errors=self.errors,
            warnings=self.warnings,
            by_kind=self.by_kind,
            scores=precision_recall(self.flagged_ids, self.planted_ids),
            duration=self.duration,
            checker_from_cache=from_cache,
        )


def _outcome_of(config: SyntheticConfig, report) -> ConfigOutcome:
    return ConfigOutcome(
        index=config.index,
        config_id=config.config_id,
        planted_kind=config.mistake_kind,
        flagged=report.flagged,
        errors=len(report.errors()),
        warnings=len(report.warnings()),
        error_kinds=report.kinds_flagged(),
    )


def _validate_chunk(
    context: _SystemContext,
    task: tuple[str, int, int],
    seed: int,
    mistake_rate: float,
) -> ChunkResult:
    """Generate and validate one chunk of a system's corpus (closures
    are pure, so threads may share the checker)."""
    _, start, count = task
    registry = get_registry()
    registry.inc("fleet.chunks")
    begun = time.perf_counter()
    outcomes = [
        _outcome_of(config, validate_config(context.checker, config.text))
        for config in iter_corpus(
            context.system,
            context.pool,
            count,
            seed=seed,
            mistake_rate=mistake_rate,
            mix=context.mix,
            start=start,
            template=context.template,
        )
    ]
    duration = time.perf_counter() - begun
    registry.observe("fleet.chunk_seconds", duration)
    return ChunkResult(outcomes, duration)


# -- interpreter ground-truthing ---------------------------------------------


def ground_truth_agreement(
    contexts: dict[str, _SystemContext],
    folds: dict[str, "_SystemFold"],
    seed: int,
    mistake_rate: float,
    sample_size: int,
    caches,
    engine: str | None = None,
) -> AgreementReport:
    """Re-test a seeded sample of flagged configs under the injection
    harness.  A flag is *confirmed* when the interpreter observably
    reacts to the planted mistake - a bad reaction (crash, early
    termination, functional failure, silent violation/ignorance) or a
    pinpointing rejection; it is *refuted* only when the system accepts
    the config with no observable effect, meaning the checker cried
    wolf."""
    from repro.inject.harness import InjectionHarness

    candidates: list[tuple[str, ConfigOutcome]] = []
    for name in sorted(folds):
        for outcome in folds[name].flagged_mistaken:
            candidates.append((name, outcome))
    rng = random.Random(f"fleet-agreement|{seed}")
    if len(candidates) > sample_size:
        candidates = rng.sample(candidates, sample_size)

    report = AgreementReport()
    harnesses: dict[str, InjectionHarness] = {}
    for name, outcome in candidates:
        context = contexts[name]
        config = generate_config(
            name,
            context.pool,
            context.template,
            context.mix,
            seed,
            outcome.index,
            mistake_rate,
        )
        if config.mistake is None:  # pragma: no cover - determinism guard
            raise RuntimeError(
                f"regenerated config {outcome.config_id} lost its planted "
                "mistake; corpus generation is no longer deterministic"
            )
        harness = harnesses.get(name)
        if harness is None:
            harness = harnesses[name] = InjectionHarness(
                context.system,
                launch_cache=caches.launches,
                snapshot_cache=caches.snapshots,
                engine=engine,
            )
        verdict = harness.test_misconfiguration(config.mistake)
        misbehaved = (
            verdict.reaction.is_vulnerability or verdict.reaction.pinpointed
        )
        report.sampled += 1
        if misbehaved:
            report.confirmed += 1
        else:
            report.refuted += 1
        report.details.append(
            (
                outcome.config_id,
                str(verdict.reaction.category),
                verdict.reaction.detail,
            )
        )
    return report


# -- process-executor fleet workers ------------------------------------------
#
# Chunk tasks are dispatched by name and rebuilt in the worker.  The
# parent plants pure seed data (the inference result) in module state
# right before the pool forks; each worker privately memoizes its
# rebuilt context (system, mistake pool, template) so serving many
# chunks pays the rebuild once, and verifies the pool digest so a
# divergent re-inference fails loudly instead of planting different
# mistakes.
# Checkers come from the worker's checker cache (`worker_caches()`),
# whose hits and misses ride home in each chunk's envelope.

_FLEET_SEEDS: dict[tuple[str, str], object] = {}
_FLEET_CONTEXTS: dict[tuple[str, str], _SystemContext] = {}


def _fleet_worker_context(name: str, options: SpexOptions) -> _SystemContext:
    """The worker's rebuilt context for one system; its checker and
    mix are filled in per chunk."""
    from repro.inject.campaign import Campaign
    from repro.pipeline.executor import worker_caches
    from repro.systems.registry import get_system

    key = (name, options.fingerprint())
    context = _FLEET_CONTEXTS.get(key)
    if context is None:
        system = get_system(name)
        spex_report = _FLEET_SEEDS.get(key)
        if spex_report is None:
            # Spawn start method (or a cold worker): recompute; the
            # pool digest check catches any hash-seed divergence.
            spex_report = Campaign(system, spex_options=options).run_spex()
        # `checker_for_system` finds the report here instead of
        # re-inferring.
        inference = worker_caches().inference
        inference.put(inference.key_for(system, options), spex_report)
        pool = corpus_pool(spex_report, system)
        context = _SystemContext(
            system=system,
            checker=None,
            pool=pool,
            digest=pool_digest(pool),
            mix={},
            template=system.template_ar(),
            from_cache=False,
        )
        _FLEET_CONTEXTS[key] = context
    return context


def _validate_chunk_by_name(task) -> ChunkResult:
    """Process-pool entry point for one corpus chunk."""
    from repro.pipeline.executor import worker_caches

    (
        name,
        options,
        seed,
        mistake_rate,
        start,
        count,
        parent_digest,
        mix_items,
        ckpt_spec,
    ) = task
    context = _fleet_worker_context(name, options)
    if context.digest != parent_digest:
        raise RuntimeError(
            f"worker rebuilt a divergent mistake pool for {name}: the "
            "plantable misconfigurations do not match what the parent "
            "sampled from (re-inference is sensitive to the interpreter "
            "hash seed; use a fork start method or set PYTHONHASHSEED)"
        )
    checker = checker_for_system(
        context.system, options, caches=worker_caches()
    )
    chunk = (name, start, count)
    result = _validate_chunk(
        dataclasses.replace(context, checker=checker, mix=dict(mix_items)),
        chunk,
        seed,
        mistake_rate,
    )
    if ckpt_spec is not None:
        root, run_key = ckpt_spec
        _save_chunk_checkpoint(CheckpointStore(root), run_key, chunk, result)
    return result

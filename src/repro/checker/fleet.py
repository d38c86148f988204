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

Every executor runs the one by-name shard function `_validate_chunk`
over tasks of (system name, seed, mistake rate, chunk range, pool
digest), through the executor's checkpointed map (`map_checkpointed`),
which resumes a killed run from its finished chunks.  For the duration
of a run the parent plants each system's context (system, mistake
pool, template, mix, compiled checker) in module state, keyed by
system name, where inline and thread shards and fork-started workers
read it; a worker that finds none rebuilds it from the system name and
verifies the pool digest before validating.

Usage::

    from repro.checker import run_fleet

    report = run_fleet(size=1500, executor="process")
    report.total_configs, report.throughput()
    for result in report.results:
        print(result.name, result.scores.precision, result.scores.recall)
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.core.accuracy import PrecisionRecall, precision_recall
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
from repro.store import content_key

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

    def throughput(self) -> float:
        """Configs validated per wall-clock second."""
        return self.total_configs / self.wall_time if self.wall_time else 0.0

    def scores(self) -> PrecisionRecall:
        total = PrecisionRecall()
        for result in self.results:
            total = total + result.scores
        return total

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
    """Per-system state of one fleet run, planted for its shards."""

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
    caches=None,
    agreement_sample: int = 0,
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
    the full spec (systems, size, seed, rates, pool digests), so a
    checkpoint can never leak across specs.
    """
    from repro.pipeline.cache import PipelineCaches
    from repro.pipeline.executor import map_checkpointed, resolve_executor
    from repro.systems.registry import iter_systems

    caches = caches if caches is not None else PipelineCaches()
    chosen = resolve_executor(executor, max_workers)
    chunk_size = max(1, chunk_size)
    get_registry().inc("fleet.runs")
    started = time.perf_counter()

    contexts: dict[str, _SystemContext] = {}
    # (shard key, task) per chunk; the key names the chunk both in the
    # checkpoint store and in its quarantine record.
    shards: list[tuple[str, tuple]] = []
    with span("fleet.compile"):
        for system in iter_systems(systems):
            context = _build_context(system, caches)
            contexts[system.name] = context
            for start in range(0, size, chunk_size):
                count = min(chunk_size, size - start)
                task = (
                    system.name, seed, mistake_rate, start, count,
                    context.digest,
                )
                shards.append((f"{system.name}:{start}:{count}", task))

    run_key = _fleet_run_key(contexts, size, seed, mistake_rate, chunk_size)
    _FLEET_CONTEXTS.update(contexts)
    try:
        mapped = map_checkpointed(
            chosen,
            _validate_chunk,
            shards,
            ChunkResult,
            label="fleet",
            span_name="fleet.validate",
            checkpoint=checkpoint,
            run_key=run_key,
            policy=retry_policy,
            chaos=chaos,
            caches=caches,
        )
    finally:
        for name in contexts:
            _FLEET_CONTEXTS.pop(name, None)

    # Fold chunk results back in submission order (determinism) while
    # streaming per-system tallies instead of keeping every outcome.
    folds: dict[str, _SystemFold] = {
        name: _SystemFold() for name in contexts
    }
    for (_, task), result in zip(shards, mapped.results):
        if result is not None:
            folds[task[0]].absorb(result)

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
        failed_shards=mapped.failures,
    )


# -- checkpointing ------------------------------------------------------------


def _fleet_run_key(
    contexts: dict[str, _SystemContext],
    size: int,
    seed: int,
    mistake_rate: float,
    chunk_size: int,
) -> str:
    """Content-address the full run spec: any change to the targeted
    systems, corpus shape, seeds or mistake pools yields a different
    key, so stale checkpoints can never fold in."""
    digests = [
        part
        for name in sorted(contexts)
        for part in (name, contexts[name].digest)
    ]
    spec = (size, seed, repr(mistake_rate), chunk_size)
    return content_key("fleet", *map(str, spec), *digests)


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


# -- interpreter ground-truthing ---------------------------------------------


def ground_truth_agreement(
    contexts: dict[str, _SystemContext],
    folds: dict[str, "_SystemFold"],
    seed: int,
    mistake_rate: float,
    sample_size: int,
    caches,
) -> AgreementReport:
    """Re-test a seeded sample of flagged configs under the injection
    harness.  A flag is *confirmed* when the interpreter observably
    reacts to the planted mistake - a bad reaction (crash, early
    termination, functional failure, silent violation/ignorance) or a
    pinpointing rejection; it is *refuted* only when the system accepts
    the config with no observable effect, meaning the checker cried
    wolf.  The sampled harnesses run under `HARNESS_OPTIONS`."""
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
                snapshot_cache=caches.snapshots,
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


# -- the shard function -------------------------------------------------------
#
# Each run plants its contexts here, keyed by system name, for the
# duration of its fan-out; inline and thread shards and fork-started
# pool workers read them.  A worker that finds none (a spawn start
# method) rebuilds the context by name and keeps it for the chunks it
# serves after, and verifies the pool digest so a divergent
# re-inference fails loudly instead of planting different mistakes.

_FLEET_CONTEXTS: dict[str, _SystemContext] = {}


def _build_context(system, caches) -> _SystemContext:
    """Compile (or fetch, content-addressed) one system's checker and
    derive its mistake pool, mix and template."""
    before = caches.checkers.stats.snapshot()
    checker = checker_for_system(system, caches=caches)
    # peek, not get: compilation already populated this entry, and the
    # footer's hit counters must reflect avoided inference runs, not
    # this bookkeeping read.
    spex_report = caches.inference.peek(caches.inference.key_for(system))
    if spex_report is None:  # pragma: no cover - cache contract
        raise RuntimeError(
            f"inference result for {system.name} missing after "
            "checker compilation"
        )
    pool = corpus_pool(spex_report, system)
    return _SystemContext(
        system=system,
        checker=checker,
        pool=pool,
        digest=pool_digest(pool),
        mix=mistake_mix(system),
        template=system.template_ar(),
        from_cache=caches.checkers.stats.hits > before["hits"],
    )


def _fleet_context(name: str) -> _SystemContext:
    """The run's planted context for one system, or one rebuilt from
    its name on the shard's stores."""
    from repro.pipeline.executor import worker_caches
    from repro.systems.registry import get_system

    context = _FLEET_CONTEXTS.get(name)
    if context is None:
        context = _build_context(get_system(name), worker_caches())
        _FLEET_CONTEXTS[name] = context
    return context


def _validate_chunk(task) -> ChunkResult:
    """The fleet's one shard function, under every executor: generate
    and validate one chunk of a system's corpus, by name."""
    name, seed, mistake_rate, start, count, parent_digest = task
    context = _fleet_context(name)
    if context.digest != parent_digest:
        raise RuntimeError(
            f"worker rebuilt a divergent mistake pool for {name}: the "
            "plantable misconfigurations do not match what the parent "
            "sampled from (the worker's sources differ)"
        )
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

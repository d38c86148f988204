"""Pluggable executors and the one worker protocol behind every fan-out.

Three strategies cover the deployment spectrum:

* `SerialExecutor` - one task at a time, in submission order.  The
  reference semantics every other executor must match (the parity
  tests compare their `Vulnerability` sets against it).
* `ThreadExecutor` - a thread pool.  Campaign and fleet work is pure
  Python and holds the GIL, so threads buy no speed (measured on a
  2-core machine, see the class docstring); they are the cheapest way
  to exercise the caches' thread safety.
* `ProcessExecutor` - a process pool (`fork` where available).  Real
  multi-core speedup; tasks and results cross a pickle boundary, which
  is why every fan-out's shard function takes a system *name* and
  rebuilds what it needs rather than closing over parent state.

One dispatch.  Every executor offers `map_resilient(fn, items,
policy=None, chaos=None, label="", caches=None)`, and `map(fn, items)`
is the same dispatch returning bare results.  Both run one module-level code path,
`_dispatch`:

* With no `policy` a run fails fast: each shard gets one attempt and
  the first failure in input order re-raises its original exception.
* With a `RetryPolicy` the run is supervised: worker death
  (`BrokenProcessPool`) and watchdog timeouts are detected, failed
  shards re-enqueue with capped exponential backoff + deterministic
  jitter, and shards that exhaust their attempts become structured
  `FailedShard` records instead of aborting the run.  Recovery events
  surface as ``resilience.*`` counters through ``repro.obs``.
* A `repro.chaos.ChaosSchedule` perturbs every shard attempt in either
  mode.  Only a shard inside a disposable process-pool worker may
  SIGKILL itself; anywhere else a fired kill raises `ChaosError`.
* A lone shard with no policy runs inline in the caller, with no pool.

All executors preserve input order in their results, so downstream
aggregation never depends on scheduling.

One worker protocol.  Every fan-out hands each executor the same
module-level shard function and picklable items; no caller branches on
the executor type.  A shard function takes its stores from
`worker_caches()`: the caller's `caches` when the shard runs inline or
on a thread, the worker's own set inside a process-pool worker.  A
pool-worker shard runs under `_run_shard`, which hands back a
`WorkerEnvelope(result, stats, metrics)`: the plain result, the delta
of the worker's stores (shaped like `PipelineCaches.stats()`) and the
`metrics_delta` of its registry.  The parent folds each envelope once,
in `_fold`: `stats` into the caller's `caches` through
`PipelineCaches.absorb`, `metrics` into the parent registry.  Inline
and thread shards count straight into the caller's stores and
registry, so they need no envelope.

One checkpointed fan-out.  `map_checkpointed` is how the pipeline's
campaigns and the fleet's chunks resume: it serves every shard the
`CheckpointStore` already holds, dispatches the rest through
`map_resilient`, and each of those saves its own pickled result inside
the task, so finished shards survive a kill of the run.  One shard key
names a shard both in the store and in its `FailedShard` label.
"""

from __future__ import annotations

import contextvars
import dataclasses
import gc
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from repro.obs import get_registry, metrics_delta, span
from repro.pipeline.cache import PipelineCaches
from repro.resilience import (
    CheckpointStore,
    FailedShard,
    ResilientMapResult,
    RetryPolicy,
)

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class WorkerEnvelope:
    """What one process shard sends home: its plain `result`, the
    `stats` delta of the stores it used and the `metrics` delta of its
    registry."""

    result: object
    stats: dict[str, dict[str, int]]
    metrics: dict


# The stores of the shard running now: the caller's `caches` for the
# duration of an inline or thread shard, or the worker's own set in a
# process-pool worker (set by its initializer, shared by every shard it
# serves).
_SHARD_CACHES: contextvars.ContextVar = contextvars.ContextVar(
    "worker_caches", default=None
)

# Set by the pool initializer: this process is a disposable pool
# worker, the only place a shard may SIGKILL itself.
_IN_POOL_WORKER = False


def worker_caches() -> PipelineCaches:
    """The stores a shard function must use: the caller's `caches` for
    an inline or thread shard, the worker's own inside a process-pool
    worker (what those count reaches the caller through its
    envelope)."""
    caches = _SHARD_CACHES.get()
    if caches is None:
        raise RuntimeError(
            "worker_caches() is only available inside a shard "
            "dispatched with caches"
        )
    return caches


def _init_pool_worker() -> None:
    """Process-pool initializer.  Move every object inherited from the
    parent (programs, caches, prior results) into the permanent
    generation - without this, each GC collection in a worker walks the
    parent's whole heap, which can make forked campaigns slower than
    serial - and give the worker its own stores."""
    global _IN_POOL_WORKER
    gc.freeze()
    _IN_POOL_WORKER = True
    _SHARD_CACHES.set(PipelineCaches())


def _run_shard(fn, item, chaos, key: str, caches):
    """Run one shard attempt, letting an armed chaos schedule perturb
    it first.  Inline and thread shards run with the caller's `caches`
    bound; a pool-worker shard uses the worker's stores and comes back
    as a `WorkerEnvelope`."""
    if chaos is not None:
        chaos.perturb(key, allow_kill=_IN_POOL_WORKER)
    if not _IN_POOL_WORKER:
        token = _SHARD_CACHES.set(caches)
        try:
            return fn(item)
        finally:
            _SHARD_CACHES.reset(token)
    caches = _SHARD_CACHES.get()
    registry = get_registry()
    stats_before = caches.snapshot()
    obs_before = registry.snapshot()
    result = fn(item)
    return WorkerEnvelope(
        result,
        caches.delta(stats_before),
        metrics_delta(obs_before, registry.snapshot()),
    )


def _fold(envelope: WorkerEnvelope, caches):
    """The parent side of the protocol: fold one pool worker's
    envelope in, return its plain result."""
    if caches is not None:
        caches.absorb(envelope.stats)
    get_registry().absorb(envelope.metrics)
    return envelope.result


def _shard_label(label: str, index: int) -> str:
    return f"{label}:{index}" if label else str(index)


class Executor:
    """Strategy interface: apply `fn` to each item, results in order.

    Pooled subclasses define `_pool(workers)`, a fresh pool per
    supervision round (None: every shard runs inline), and set
    `envelope` when their pooled shards cross a process boundary."""

    name = "base"
    envelope = False
    _pool = None

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Fail-fast fan-out: `fn` over `items`, results in order."""
        return _dispatch(self, fn, items).results

    def map_resilient(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        policy: RetryPolicy | None = None,
        chaos=None,
        label: str = "",
        caches: PipelineCaches | None = None,
    ) -> ResilientMapResult:
        """Supervised fan-out (see the module docstring).  Results stay
        aligned with `items`; a quarantined shard's slot is None and
        its `FailedShard` lands in ``failures``.  `caches` is what
        `worker_caches()` returns to inline and thread shards, and
        where pool workers' store deltas fold."""
        return _dispatch(self, fn, items, policy, chaos, label, caches)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self.name!r}>"


class SerialExecutor(Executor):
    """In-order execution in the caller.  A serial shard cannot be
    interrupted from its own thread, so `policy.timeout` is not
    enforced here; retries and backoff are."""

    name = "serial"
    # Tracing patches these per class, so every executor owns them.
    map = Executor.map
    map_resilient = Executor.map_resilient


class ThreadExecutor(Executor):
    """A thread pool.  Watchdog timeouts are enforced on the
    `future.result` wait; a timed-out shard's thread cannot be killed
    (it finishes in the background, its result discarded), so one
    stalled shard never wedges the run.

    Campaign and fleet work holds the GIL, so threads buy no speed.
    Measured on a 2-core machine, 5 alternating serial/thread pairs,
    each run in a fresh interpreter: `CampaignPipeline` over all eight
    systems took 3.6-5.1 s serial (median 4.6 s) vs 4.1-5.0 s threaded
    (median 4.8 s), and `run_fleet` at 600 configs per system 0.57-0.84
    s serial vs 0.76-0.87 s threaded; threads were slower in 4 of 5
    pairs on both."""

    name = "thread"
    map = Executor.map
    map_resilient = Executor.map_resilient

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers or max(2, min(8, os.cpu_count() or 2))

    def _pool(self, workers: int):
        return ThreadPoolExecutor(max_workers=workers)


class ProcessExecutor(Executor):
    """Process-pool fan-out.  `fn` and every item/result must pickle;
    the fan-outs honour this by sending system names, not systems.
    A SIGKILL'd worker surfaces as `BrokenProcessPool`: every
    unfinished shard of that pool counts one failed attempt and the
    pool is rebuilt for the next round.  Watchdog timeouts abandon the
    stalled pool and re-enqueue its unfinished shards on a fresh one."""

    name = "process"
    envelope = True
    map = Executor.map
    map_resilient = Executor.map_resilient

    def __init__(self, max_workers: int | None = None) -> None:
        # Campaign work is CPU-bound: more workers than cores only adds
        # scheduling and fork overhead (unlike the thread pool, where
        # oversubscription is harmless).
        self.max_workers = max_workers or max(1, os.cpu_count() or 1)

    def _pool(self, workers: int):
        return ProcessPoolExecutor(
            max_workers=workers, initializer=_init_pool_worker
        )


def _dispatch(
    executor: Executor,
    fn,
    items: Iterable,
    policy: RetryPolicy | None = None,
    chaos=None,
    label: str = "",
    caches: PipelineCaches | None = None,
) -> ResilientMapResult:
    """The one code path behind every executor's `map` and
    `map_resilient`."""
    items = list(items)
    if executor._pool is None or (policy is None and len(items) <= 1):
        return _run_inline(executor, fn, items, policy, chaos, label, caches)
    return _supervise_pool(executor, fn, items, policy, chaos, label, caches)


def _quarantine(registry, failures, index, shard, attempts, kind, detail):
    registry.inc("resilience.quarantined")
    failures.append(
        FailedShard(
            index=index,
            label=shard,
            attempts=attempts,
            error_kind=kind,
            detail=detail,
        )
    )


def _run_inline(
    executor, fn, items, policy, chaos, label, caches
) -> ResilientMapResult:
    """Shards in the caller, in order.  Exceptions retry with backoff
    under a policy; without one the first propagates as raised."""
    registry = get_registry()
    results: list = [None] * len(items)
    failures: list[FailedShard] = []
    retries = 0
    max_attempts = policy.max_attempts if policy is not None else 1
    for index, item in enumerate(items):
        shard = _shard_label(label, index)
        for attempt in range(1, max_attempts + 1):
            try:
                results[index] = _run_shard(
                    fn, item, chaos, f"{shard}|a{attempt}", caches
                )
            except Exception as exc:
                if policy is None:
                    raise
                registry.inc("resilience.shard_failures")
                if attempt >= max_attempts:
                    _quarantine(
                        registry, failures, index, shard, attempt,
                        type(exc).__name__, str(exc),
                    )
                else:
                    retries += 1
                    registry.inc("resilience.retries")
                    time.sleep(policy.delay_for(attempt, shard))
            else:
                break
    return ResilientMapResult(results, failures, retries)


def _supervise_pool(
    executor, fn, items, policy, chaos, label, caches
) -> ResilientMapResult:
    """Round-based supervision for the thread and process executors.

    Each round submits every pending shard to a fresh pool and waits
    for each future up to `policy.timeout` (measured per wait - an
    upper bound on the shard's run time, since all futures execute
    concurrently).  Failures are retried with capped backoff +
    deterministic jitter on the next round; shards that exhaust
    `policy.max_attempts` are quarantined as `FailedShard` records.
    Without a policy the first failure in input order re-raises.
    """
    registry = get_registry()
    max_attempts = policy.max_attempts if policy is not None else 1
    timeout = policy.timeout if policy is not None else None
    results: list = [None] * len(items)
    finished = [False] * len(items)
    attempts = [0] * len(items)
    last_error: dict[int, tuple[str, str]] = {}
    failures: list[FailedShard] = []
    retries = 0
    pending = list(range(len(items)))
    # A process pool's workers use their own stores; never ship ours.
    shard_caches = None if executor.envelope else caches
    while pending:
        pool = executor._pool(min(executor.max_workers, len(pending)))
        abandoned = False
        futures = {}
        for index in pending:
            attempts[index] += 1
            key = f"{_shard_label(label, index)}|a{attempts[index]}"
            futures[index] = pool.submit(
                _run_shard, fn, items[index], chaos, key, shard_caches
            )
        for index, future in futures.items():
            try:
                outcome = future.result(timeout=timeout)
            except Exception as exc:
                if policy is None:
                    pool.shutdown(wait=True, cancel_futures=True)
                    raise
                if isinstance(exc, TimeoutError) and not future.done():
                    abandoned = True
                    registry.inc("resilience.timeouts")
                    last_error[index] = (
                        "timeout",
                        f"exceeded the {timeout}s watchdog deadline",
                    )
                elif isinstance(exc, TimeoutError):
                    # The shard itself raised TimeoutError.
                    registry.inc("resilience.shard_failures")
                    last_error[index] = ("TimeoutError", "shard raised")
                else:
                    # A BrokenProcessPool means one worker died
                    # (SIGKILL, OOM, segfault): the pool is poisoned
                    # and every unfinished sibling fails with it.
                    registry.inc(
                        "resilience.worker_crashes"
                        if isinstance(exc, BrokenProcessPool)
                        else "resilience.shard_failures"
                    )
                    last_error[index] = (type(exc).__name__, str(exc))
            else:
                results[index] = (
                    _fold(outcome, caches) if executor.envelope else outcome
                )
                finished[index] = True
        # A stalled shard's worker cannot be joined promptly: abandon
        # the pool (cancel what never started, don't wait for the
        # stall) and let the fresh pool take the retries.
        pool.shutdown(wait=not abandoned, cancel_futures=True)
        still_pending = []
        for index in pending:
            if finished[index]:
                continue
            if attempts[index] >= max_attempts:
                kind, detail = last_error.get(index, ("unknown", ""))
                _quarantine(
                    registry, failures, index, _shard_label(label, index),
                    attempts[index], kind, detail,
                )
            else:
                still_pending.append(index)
        if still_pending:
            retries += len(still_pending)
            registry.inc("resilience.retries", len(still_pending))
            time.sleep(policy.delay_for(attempts[still_pending[0]], label))
        pending = still_pending
    return ResilientMapResult(results, failures, retries)


@dataclass(frozen=True)
class CheckpointedMap:
    """What `map_checkpointed` hands back, aligned with its shards:
    each result (None for a quarantined shard), whether it was served
    from the checkpoint store, and the quarantine records, labelled by
    shard key."""

    results: list
    restored: list[bool]
    failures: list[FailedShard]


def map_checkpointed(
    executor: Executor,
    fn: Callable,
    shards: Sequence[tuple[str, object]],
    expect: type,
    *,
    label: str,
    span_name: str,
    checkpoint: CheckpointStore | None = None,
    run_key: str = "",
    policy: RetryPolicy | None = None,
    chaos=None,
    caches: PipelineCaches | None = None,
) -> CheckpointedMap:
    """Apply the shard function `fn` to each `(key, item)` shard,
    resuming from `checkpoint`.

    A shard whose key the store holds under `run_key` is served from
    it; a payload that fails to unpickle or is not an `expect` counts
    as a miss (schema drift between the writer's code and ours).  The
    rest go through `executor.map_resilient` under `label`, and each
    saves its own pickled result inside the task.  A quarantined
    shard's `FailedShard` is labelled by its key.  `span_name` traces
    the dispatch of the shards not served from the store."""
    registry = get_registry()
    results: list = []
    pending: list[int] = []
    for position, (key, _) in enumerate(shards):
        found = _load_shard(checkpoint, run_key, key, expect)
        if found is None:
            pending.append(position)
        else:
            registry.inc("resilience.checkpoint_hits")
        results.append(found)
    restored = [found is not None for found in results]
    failures: list[FailedShard] = []
    if pending:
        tasks = [
            (fn, shards[position][1], checkpoint, run_key, shards[position][0])
            for position in pending
        ]
        with span(span_name, executor=executor.name, shards=len(pending)):
            supervised = executor.map_resilient(
                _checkpointed_shard, tasks, policy, chaos, label, caches
            )
        for position, result in zip(pending, supervised.results):
            results[position] = result
        failures = [
            dataclasses.replace(
                failure, label=shards[pending[failure.index]][0]
            )
            for failure in supervised.failures
        ]
    return CheckpointedMap(results, restored, failures)


def _load_shard(checkpoint, run_key: str, key: str, expect: type):
    if checkpoint is None:
        return None
    blob = checkpoint.load(run_key, key)
    if blob is None:
        return None
    try:
        found = pickle.loads(blob)
    except Exception:
        return None
    return found if isinstance(found, expect) else None


def _checkpointed_shard(task):
    """One `map_checkpointed` task: run the shard function, then save
    its result, so the shard's progress survives a kill of the run."""
    fn, item, checkpoint, run_key, key = task
    result = fn(item)
    if checkpoint is not None:
        checkpoint.save(run_key, key, pickle.dumps(result))
        get_registry().inc("resilience.checkpoint_saves")
    return result


_EXECUTORS: dict[str, Callable[[int | None], Executor]] = {
    "serial": lambda workers: SerialExecutor(),
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def executor_names() -> Sequence[str]:
    return tuple(_EXECUTORS)


def resolve_executor(
    spec: str | Executor, max_workers: int | None = None
) -> Executor:
    """Accept either an `Executor` instance or one of the registered
    names ("serial", "thread", "process")."""
    if isinstance(spec, Executor):
        return spec
    try:
        factory = _EXECUTORS[spec]
    except KeyError:
        raise ValueError(
            f"unknown executor {spec!r}; choose from {', '.join(_EXECUTORS)}"
        ) from None
    return factory(max_workers)

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
  multi-core speedup; tasks and results cross a pickle boundary, so
  process tasks are dispatched by system *name* and rebuilt in the
  worker rather than shipped as closures.

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

One worker protocol.  A process-executor shard runs under
`_run_shard`, which hands back a `WorkerEnvelope(result, stats,
metrics)`: the entry point's plain result, the delta of the stores it
used (`worker_caches()`, shaped like `PipelineCaches.stats()`), and the
`metrics_delta` of its registry.  The parent folds each envelope once,
in `_fold`: `stats` into the caller's `caches` through
`PipelineCaches.absorb`, `metrics` into the parent registry only when
the shard really ran in a pool worker (an inline shard already
recorded into the parent's own registry).  Worker entry points - the
pipeline's campaigns and the fleet's chunks - take their stores from
`worker_caches()` and return plain results.
"""

from __future__ import annotations

import contextvars
import gc
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from repro.obs import get_registry, metrics_delta
from repro.pipeline.cache import PipelineCaches
from repro.resilience import FailedShard, ResilientMapResult, RetryPolicy

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


# The stores of the process shard running now: one set per pool worker
# (set by its initializer, shared by every shard it serves), or a fresh
# set for the duration of a shard run inline in the caller.
_WORKER_CACHES: contextvars.ContextVar = contextvars.ContextVar(
    "worker_caches", default=None
)


def worker_caches() -> PipelineCaches:
    """The stores a process-shard entry point must use, so that what it
    counts reaches the caller's caches through its envelope."""
    caches = _WORKER_CACHES.get()
    if caches is None:
        raise RuntimeError(
            "worker_caches() is only available inside a process shard"
        )
    return caches


def _init_pool_worker() -> None:
    """Process-pool initializer.  Move every object inherited from the
    parent (programs, caches, prior results) into the permanent
    generation - without this, each GC collection in a worker walks the
    parent's whole heap, which can make forked campaigns slower than
    serial - and give the worker its own stores."""
    gc.freeze()
    _WORKER_CACHES.set(PipelineCaches())


def _run_shard(fn, item, chaos, key: str, envelope: bool):
    """Run one shard attempt, letting an armed chaos schedule perturb
    it first.  With `envelope` (process executors) the result comes
    back as a `WorkerEnvelope`."""
    caches = _WORKER_CACHES.get()
    if chaos is not None:
        chaos.perturb(key, allow_kill=caches is not None)
    if not envelope:
        return fn(item)
    token = None
    if caches is None:
        caches = PipelineCaches()
        token = _WORKER_CACHES.set(caches)
    registry = get_registry()
    stats_before = caches.snapshot()
    obs_before = registry.snapshot()
    try:
        result = fn(item)
    finally:
        if token is not None:
            _WORKER_CACHES.reset(token)
    return WorkerEnvelope(
        result,
        caches.delta(stats_before),
        metrics_delta(obs_before, registry.snapshot()),
    )


def _fold(envelope: WorkerEnvelope, caches, pooled: bool):
    """The parent side of the protocol: fold one envelope in, return
    its plain result."""
    if caches is not None:
        caches.absorb(envelope.stats)
    if pooled:
        get_registry().absorb(envelope.metrics)
    return envelope.result


def _shard_label(label: str, index: int) -> str:
    return f"{label}:{index}" if label else str(index)


class Executor:
    """Strategy interface: apply `fn` to each item, results in order.

    Pooled subclasses define `_pool(workers)`, a fresh pool per
    supervision round (None: every shard runs inline), and set
    `envelope` when their shards cross a process boundary."""

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
        its `FailedShard` lands in ``failures``.  Process shards' store
        deltas fold into `caches`."""
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
    the pipeline honours this by sending system names, not systems.
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
                outcome = _run_shard(
                    fn, item, chaos, f"{shard}|a{attempt}", executor.envelope
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
                results[index] = (
                    _fold(outcome, caches, pooled=False)
                    if executor.envelope
                    else outcome
                )
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
    while pending:
        pool = executor._pool(min(executor.max_workers, len(pending)))
        abandoned = False
        futures = {}
        for index in pending:
            attempts[index] += 1
            key = f"{_shard_label(label, index)}|a{attempts[index]}"
            futures[index] = pool.submit(
                _run_shard, fn, items[index], chaos, key, executor.envelope
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
                    _fold(outcome, caches, pooled=True)
                    if executor.envelope
                    else outcome
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

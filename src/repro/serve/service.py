"""The always-on validation service core.

Every CLI `check` today pays full cold start: import the world, run
SPEX inference, compile the checker, then validate one file and exit.
`ValidationService` keeps the expensive parts - compiled checkers via
`PipelineCaches.checkers`, inference results, warm-boot snapshot
records - resident across requests, so a submission costs one config
parse plus validator closures (~tens of microseconds) instead of a
process boot (~half a second).

Concurrency model:

* All service *state* (histories, result snapshots, counters) is
  mutated only on the event loop thread, guarded by one asyncio lock
  around the commit section, so interleaved submissions serialize at
  the bookkeeping step.
* The CPU-bound part - `validate_config` against a compiled checker -
  runs on a bounded `ThreadPoolExecutor`.  Compiled checkers are
  immutable-by-convention after compilation (the fleet already shares
  them across worker threads), so N concurrent validations of one
  system are safe and bit-identical to serial runs.
* Result snapshots are immutable tuples; pagination cursors reference
  a snapshot by id, so an open cursor stays stable while any number
  of new submissions land.

Usage::

    import asyncio
    from repro.serve import ValidationService

    async def main():
        service = ValidationService(systems=["mysql"])
        await service.start()
        response = await service.check_config("mysql", "port = 70000\n")
        print(response.flagged, response.errors)
        await service.close()

    asyncio.run(main())
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.checker.compile import checker_for_system
from repro.checker.validate import ERROR, ValidationReport, validate_config
from repro.obs import MetricsRegistry, get_tracer
from repro.pipeline.cache import PipelineCaches
from repro.resilience import CircuitBreaker
from repro.serve.models import (
    DEFAULT_PAGE_SIZE,
    MAX_HISTORY_DEPTH,
    SCHEMA_VERSION,
    CheckRequest,
    CheckResponse,
    ConfigHistory,
    DiagnosticPage,
    FleetStatus,
    HistoryDelta,
    MetricsResponse,
    ServeError,
    decode_cursor,
    encode_cursor,
)

DEFAULT_MAX_RESULTS = 1024
DEFAULT_WORKERS = 4


def _finding_key(diagnostic: dict) -> tuple:
    """A diagnostic's identity across revisions of one config: what
    the finding *is*, not where it currently sits.  Excludes
    `config_line` deliberately - moving a setting to another line must
    not read as "fixed one problem, introduced another"."""
    return (
        diagnostic["param"],
        diagnostic["code"],
        diagnostic["severity"],
        diagnostic["message"],
    )


@dataclass
class _TrackedConfig:
    """Server-side state of one (system, config_id) identity."""

    revision: int = 0
    last_diagnostics: tuple[dict, ...] = ()
    deltas: deque = field(
        default_factory=lambda: deque(maxlen=MAX_HISTORY_DEPTH)
    )


class ValidationService:
    """Compiled checkers resident in memory, served over asyncio."""

    def __init__(
        self,
        systems: list[str] | None = None,
        caches: PipelineCaches | None = None,
        max_workers: int | None = None,
        max_results: int = DEFAULT_MAX_RESULTS,
        max_pending: int | None = None,
        deadline_seconds: float | None = None,
        circuit_threshold: int = 5,
        circuit_reset_seconds: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        from repro.systems.registry import iter_systems

        # Materialise the roster eagerly so an unknown system fails at
        # construction (KeyError from the registry), not mid-serve.
        self._systems = {
            system.name: system for system in iter_systems(systems)
        }
        self.caches = caches if caches is not None else PipelineCaches()
        self._workers = max_workers or DEFAULT_WORKERS
        self._pool: ThreadPoolExecutor | None = None
        self._checkers: dict[str, object] = {}
        self._lock = asyncio.Lock()
        self._tracked: dict[tuple[str, str], _TrackedConfig] = {}
        self._results: OrderedDict[str, tuple[dict, ...]] = OrderedDict()
        self._max_results = max(1, max_results)
        self._checks_served = 0
        self._started_at: float | None = None
        self._warmup_seconds = 0.0
        # Per-service registry (not the process-wide one): concurrent
        # services in one process - the test suite runs several - must
        # not see each other's request latencies.
        self.registry = MetricsRegistry()
        self._warmup_by_system: dict[str, float] = {}
        # Degradation posture (see docs/ROBUSTNESS.md): a bounded
        # admission count sheds load with typed `overloaded` errors, a
        # per-request deadline converts stuck checks into typed
        # `deadline` errors, and one circuit breaker per served system
        # fuses a repeatedly-faulting checker off instead of letting
        # every request fail slowly.  All default off/forgiving; the
        # clock is injectable so tests drive cool-downs directly.
        self._max_pending = max_pending
        self._deadline_seconds = deadline_seconds
        self._inflight = 0
        self._breakers = {
            name: CircuitBreaker(
                threshold=circuit_threshold,
                reset_seconds=circuit_reset_seconds,
                clock=clock,
            )
            for name in self._systems
        }

    # -- lifecycle -----------------------------------------------------------

    @property
    def systems(self) -> tuple[str, ...]:
        return tuple(sorted(self._systems))

    @property
    def started(self) -> bool:
        return self._started_at is not None

    async def start(self) -> None:
        """Warm every system's compiled checker, in parallel on the
        worker pool.  Idempotent: a second start is a no-op."""
        if self.started:
            return
        self._pool = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-serve"
        )
        loop = asyncio.get_running_loop()
        begun = time.perf_counter()
        names = sorted(self._systems)
        checkers = await asyncio.gather(
            *(
                loop.run_in_executor(self._pool, self._compile_checker, name)
                for name in names
            )
        )
        self._checkers = dict(zip(names, checkers))
        self._warmup_seconds = time.perf_counter() - begun
        self._started_at = time.monotonic()

    def _compile_checker(self, name: str):
        begun = time.perf_counter()
        checker = checker_for_system(self._systems[name], caches=self.caches)
        # Runs on pool threads during start(); plain dict assignment
        # per distinct key is safe and the timings feed the metrics op.
        elapsed = time.perf_counter() - begun
        self._warmup_by_system[name] = elapsed
        self.registry.gauge(f"serve.warmup_seconds.{name}", elapsed)
        return checker

    async def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._started_at = None
        self._checkers = {}

    # -- the check path ------------------------------------------------------

    async def check(self, request: CheckRequest) -> CheckResponse:
        """Validate one submission and commit it to the history.

        Degradation order: shed first (cheapest refusal), then the
        circuit breaker (known-bad checker), then the deadline around
        the actual work - so an overloaded service answers every
        request *something* typed instead of queueing unboundedly or
        hanging."""
        request.validate()
        if (
            self._max_pending is not None
            and self._inflight >= self._max_pending
        ):
            self.registry.inc("serve.shed")
            raise ServeError(
                "overloaded",
                f"admission queue is full ({self._max_pending} pending); "
                "retry later",
            )
        breaker = self._breakers.get(request.system)
        if breaker is not None and not breaker.allow():
            self.registry.inc("serve.circuit_open")
            raise ServeError(
                "circuit-open",
                f"the {request.system} checker is fused off after "
                "repeated faults; retrying after the cool-down",
            )
        self._inflight += 1
        begun = time.perf_counter()
        try:
            tracer = get_tracer()
            if tracer.enabled:
                with tracer.span("serve.check", system=request.system):
                    response = await self._check_guarded(request, breaker)
            else:
                response = await self._check_guarded(request, breaker)
        finally:
            self._inflight -= 1
        self.registry.inc("serve.requests")
        self.registry.observe(
            "serve.check_seconds", time.perf_counter() - begun
        )
        return response

    async def _check_guarded(
        self, request: CheckRequest, breaker: CircuitBreaker | None
    ) -> CheckResponse:
        """Apply the per-request deadline and feed the system's
        circuit breaker: organic checker crashes (and deadline blows)
        count as faults, typed refusals do not."""
        try:
            if self._deadline_seconds is None:
                response = await self._check_inner(request)
            else:
                response = await asyncio.wait_for(
                    self._check_inner(request), self._deadline_seconds
                )
        except ServeError:
            raise
        except asyncio.TimeoutError:
            self.registry.inc("serve.deadline_timeouts")
            if breaker is not None:
                breaker.record_failure()
            raise ServeError(
                "deadline",
                f"request exceeded the {self._deadline_seconds}s "
                "processing deadline",
            ) from None
        except Exception as exc:
            self.registry.inc("serve.checker_faults")
            if breaker is not None:
                breaker.record_failure()
            raise ServeError(
                "checker-fault",
                f"the {request.system} checker failed on this request: "
                f"{type(exc).__name__}: {exc}",
            ) from exc
        if breaker is not None:
            breaker.record_success()
        return response

    async def _check_inner(self, request: CheckRequest) -> CheckResponse:
        checker = self._checker_for(request.system)
        loop = asyncio.get_running_loop()
        report: ValidationReport = await loop.run_in_executor(
            self._pool, validate_config, checker, request.config_text
        )
        diagnostics = tuple(d.summary_dict() for d in report.diagnostics)
        async with self._lock:
            revision, result_id, delta = self._commit(
                request, diagnostics
            )
            self._checks_served += 1
        page = self._build_page(
            result_id,
            diagnostics,
            offset=0,
            limit=request.page_size,
            severity=request.severity,
            kinds=request.kinds,
        )
        return CheckResponse(
            schema_version=SCHEMA_VERSION,
            system=request.system,
            config_id=request.config_id,
            revision=revision,
            result_id=result_id,
            flagged=report.flagged,
            errors=len(report.errors()),
            warnings=len(report.warnings()),
            parameters_present=report.parameters_present,
            parameters_checked=report.parameters_checked,
            page=page,
            history=delta,
        )

    async def check_config(
        self, system: str, config_text: str, config_id: str | None = None,
        **kwargs,
    ) -> CheckResponse:
        """Convenience wrapper building the `CheckRequest` inline."""
        return await self.check(
            CheckRequest(
                system=system,
                config_text=config_text,
                config_id=config_id,
                **kwargs,
            )
        )

    def _checker_for(self, system: str):
        if not self.started:
            raise ServeError("bad-request", "service is not started")
        checker = self._checkers.get(system)
        if checker is None:
            raise ServeError(
                "unknown-system",
                f"{system!r} is not served; warm systems: "
                f"{', '.join(sorted(self._checkers))}",
            )
        return checker

    def _commit(
        self, request: CheckRequest, diagnostics: tuple[dict, ...]
    ) -> tuple[int, str, HistoryDelta | None]:
        """Store the immutable result snapshot and, for tracked
        configs, advance the revision and compute the delta.  Runs
        under the service lock on the loop thread."""
        delta = None
        revision = 1
        if request.config_id is not None:
            key = (request.system, request.config_id)
            tracked = self._tracked.get(key)
            if tracked is None:
                tracked = self._tracked[key] = _TrackedConfig()
            previous = tracked.revision
            revision = previous + 1
            if previous > 0:
                delta = _diff(
                    tracked.last_diagnostics, diagnostics, revision
                )
                tracked.deltas.append(delta)
            tracked.revision = revision
            tracked.last_diagnostics = diagnostics
        result_id = self._store_result(request, revision, diagnostics)
        return revision, result_id, delta

    def _store_result(
        self, request: CheckRequest, revision: int, diagnostics
    ) -> str:
        digest = hashlib.sha256()
        digest.update(request.system.encode("utf-8"))
        digest.update(b"\x00")
        digest.update((request.config_id or "").encode("utf-8"))
        digest.update(b"\x00")
        digest.update(str(revision).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(request.config_text.encode("utf-8"))
        result_id = digest.hexdigest()[:24]
        self._results[result_id] = diagnostics
        self._results.move_to_end(result_id)
        while len(self._results) > self._max_results:
            self._results.popitem(last=False)
        return result_id

    # -- pagination ----------------------------------------------------------

    def page(self, cursor: str, limit: int | None = None) -> DiagnosticPage:
        """Continue a paginated diagnostic walk.

        The filter travels inside the cursor (see `models`), so the
        only per-call knob is the page size - still capped by
        `MAX_PAGE_SIZE` via `CheckRequest`-equivalent validation.
        """
        result_id, offset, severity, kinds = decode_cursor(cursor)
        if limit is not None:
            # Reuse the request-side ceiling without duplicating it.
            CheckRequest(
                system="-", config_text="", page_size=limit
            ).validate()
        snapshot = self._results.get(result_id)
        if snapshot is None:
            raise ServeError(
                "cursor-expired",
                "the result this cursor points at was evicted; resubmit "
                "the config",
            )
        return self._build_page(
            result_id,
            snapshot,
            offset=offset,
            limit=limit or DEFAULT_PAGE_SIZE,
            severity=severity,
            kinds=kinds,
        )

    def _build_page(
        self,
        result_id: str,
        snapshot: tuple[dict, ...],
        offset: int,
        limit: int,
        severity: str | None,
        kinds: tuple[str, ...],
    ) -> DiagnosticPage:
        matched = [
            d
            for d in snapshot
            if (severity is None or d["severity"] == severity)
            and (not kinds or d["kind"] in kinds)
        ]
        items = tuple(matched[offset:offset + limit])
        next_offset = offset + len(items)
        cursor = None
        if next_offset < len(matched):
            cursor = encode_cursor(result_id, next_offset, severity, kinds)
        return DiagnosticPage(
            items=items,
            cursor=cursor,
            total=len(snapshot),
            matched=len(matched),
            offset=offset,
        )

    # -- history and status --------------------------------------------------

    def history(self, system: str, config_id: str) -> ConfigHistory:
        tracked = self._tracked.get((system, config_id))
        if tracked is None:
            raise ServeError(
                "unknown-config",
                f"no submissions recorded for ({system}, {config_id})",
            )
        return ConfigHistory(
            system=system,
            config_id=config_id,
            revision=tracked.revision,
            deltas=tuple(tracked.deltas),
        )

    def status(self) -> FleetStatus:
        uptime = (
            time.monotonic() - self._started_at if self.started else 0.0
        )
        counters = self.registry.snapshot()["counters"]
        return FleetStatus(
            schema_version=SCHEMA_VERSION,
            systems=tuple(sorted(self._checkers)),
            checks_served=self._checks_served,
            configs_tracked=len(self._tracked),
            results_retained=len(self._results),
            uptime_seconds=uptime,
            warmup_seconds=self._warmup_seconds,
            workers=self._workers,
            cache_stats=self.caches.stats(),
            resilience={
                "max_pending": self._max_pending,
                "deadline_seconds": self._deadline_seconds,
                "shed": counters.get("serve.shed", 0),
                "deadline_timeouts": counters.get(
                    "serve.deadline_timeouts", 0
                ),
                "circuit_open": counters.get("serve.circuit_open", 0),
                "checker_faults": counters.get("serve.checker_faults", 0),
                "breakers": {
                    name: self._breakers[name].state
                    for name in sorted(self._breakers)
                },
            },
        )

    def metrics(self, limit: int | None = None) -> MetricsResponse:
        """Snapshot this service's telemetry as a typed response.

        Families are truncated to at most `limit` names (default
        `DEFAULT_PAGE_SIZE`, ceiling `MAX_PAGE_SIZE` - the same
        discipline as diagnostic pages) in sorted order, so the wire
        payload stays bounded no matter how many metric names
        accumulate; `truncated` says whether anything was cut.
        """
        if limit is not None:
            # Reuse the request-side page ceiling without duplicating it.
            CheckRequest(
                system="-", config_text="", page_size=limit
            ).validate()
        cap = limit or DEFAULT_PAGE_SIZE
        # Cache counters ride along as gauges so one op answers both
        # "how fast are requests" and "are the caches earning their keep".
        for layer, counters in self.caches.stats().items():
            for name, value in counters.items():
                self.registry.gauge(f"cache.{layer}.{name}", value)
        snap = self.registry.snapshot()
        truncated = False

        def bound(family: dict) -> dict:
            nonlocal truncated
            names = sorted(family)
            if len(names) > cap:
                truncated = True
                names = names[:cap]
            return {name: family[name] for name in names}

        uptime = (
            time.monotonic() - self._started_at if self.started else 0.0
        )
        return MetricsResponse(
            schema_version=SCHEMA_VERSION,
            checks_served=self._checks_served,
            uptime_seconds=uptime,
            warmup_seconds=self._warmup_seconds,
            warmup_by_system=dict(sorted(self._warmup_by_system.items())),
            counters=bound(snap["counters"]),
            gauges=bound(snap["gauges"]),
            histograms=bound(snap["histograms"]),
            truncated=truncated,
        )


def _diff(
    old: tuple[dict, ...], new: tuple[dict, ...], revision: int
) -> HistoryDelta:
    """Multiset diff by finding identity, preserving snapshot order."""
    old_counts: dict[tuple, int] = {}
    for diagnostic in old:
        key = _finding_key(diagnostic)
        old_counts[key] = old_counts.get(key, 0) + 1
    added = []
    unchanged = 0
    remaining = dict(old_counts)
    for diagnostic in new:
        key = _finding_key(diagnostic)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            unchanged += 1
        else:
            added.append(diagnostic)
    removed = []
    for diagnostic in old:
        key = _finding_key(diagnostic)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            removed.append(diagnostic)
    return HistoryDelta(
        revision=revision,
        previous_revision=revision - 1,
        added=tuple(added),
        removed=tuple(removed),
        unchanged=unchanged,
    )


# Re-exported severity constant for callers rendering service output.
__all__ = [
    "DEFAULT_MAX_RESULTS",
    "DEFAULT_WORKERS",
    "ERROR",
    "ValidationService",
]

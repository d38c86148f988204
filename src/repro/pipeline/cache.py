"""Content-addressed caches for the campaign pipeline.

Inference dominates nothing (campaigns do), but it is the part that is
*pure*: the same (program sources, annotations, options) triple always
produces the same `SpexReport`.  The pipeline therefore keys inference
results by a content hash of exactly that triple, so repeated
campaigns, ablation sweeps and multi-executor parity runs skip
re-inference entirely.  A second, optional layer caches whole
`CampaignReport`s keyed by the inference fingerprint plus the
generator-rule set, which makes a warm pipeline re-run almost free.
A third layer, the `LaunchCache`, works at the opposite end of the
stack: individual interpreter launches keyed by (system, config text,
requests, interpreter options), so injections that serialize to
identical configs - and every repeated baseline launch - share one
interpreter run.  A fourth, the `SnapshotCache`, backs the launch
engine's warm-boot replay (`repro.runtime.snapshot`): per-config boot
records keyed by (system, config text, options), shared across
harnesses so one config's boot prefix is interpreted at most twice per
process no matter how many launches replay it.

Keys are SHA-256 hex digests; a changed source file, annotation block
or `SpexOptions` knob yields a new key, so stale entries are never
served (they are merely unreferenced).

Usage::

    cache = InferenceCache()
    key = spex_fingerprint(system.sources, system.annotations, options)
    report = cache.get_or_compute(key, lambda: engine.run())
    cache.stats.hits, cache.stats.misses
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Callable, Generic, TypeVar

from repro.core.engine import SpexOptions, SpexReport
from repro.obs.metrics import get_registry
from repro.runtime.snapshot import (
    BootRecord,
    BootStats,
    BoundaryHint,
)

T = TypeVar("T")


def spex_fingerprint(
    sources: dict[str, str],
    annotations: str,
    options: SpexOptions | None = None,
) -> str:
    """Content hash of one inference job.

    The key covers everything `SpexEngine` reads: every source file
    (name and text, order-independent), the mapping annotations, and
    the full option set via `SpexOptions.fingerprint()`.
    """
    digest = hashlib.sha256()
    for filename in sorted(sources):
        digest.update(filename.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(sources[filename].encode("utf-8"))
        digest.update(b"\x00")
    digest.update(annotations.encode("utf-8"))
    digest.update(b"\x00")
    digest.update((options or SpexOptions()).fingerprint().encode("utf-8"))
    return digest.hexdigest()


def campaign_fingerprint(spex_key: str, roster: list[str]) -> str:
    """Key of one full campaign: the inference key plus the qualified
    generation-rule roster (`GeneratorRegistry.roster()`).  A changed
    plug-in set - including a same-named plug-in with a different
    implementing class - must invalidate cached campaign results even
    when inference is unchanged."""
    digest = hashlib.sha256()
    digest.update(spex_key.encode("utf-8"))
    for rule in sorted(roster):
        digest.update(b"\x00")
        digest.update(rule.encode("utf-8"))
    return digest.hexdigest()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    peeks: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "peeks": self.peeks,
        }

    def absorb(self, delta: dict[str, int]) -> None:
        """Fold a snapshot-shaped delta in (how counters observed in a
        worker process reach the parent's stats)."""
        self.hits += delta.get("hits", 0)
        self.misses += delta.get("misses", 0)
        self.invalidations += delta.get("invalidations", 0)
        self.peeks += delta.get("peeks", 0)


class ContentCache(Generic[T]):
    """A thread-safe content-addressed store with hit/miss counters.

    Values are immutable-by-convention: callers must not mutate a
    cached object after `put`, because later `get`s return the same
    instance (executor-parity tests rely on this determinism).
    """

    def __init__(self) -> None:
        self._entries: dict[str, T] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        # Taken under the lock: len()/containment race with worker
        # threads mutating `_entries` (dict resizing mid-read raises
        # RuntimeError under free-threaded builds and returns torn
        # observations everywhere else).
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> T | None:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return value

    def peek(self, key: str) -> T | None:
        """Read without touching the hit/miss counters - for
        bookkeeping reads of entries some earlier call populated (the
        counters exist to measure *work avoided*, not lookups).  Peeks
        get their own counter so warm-path reads (the serve tier, the
        fleet's context probe) stay visible in the metrics registry
        without polluting the work-avoided signal."""
        with self._lock:
            self.stats.peeks += 1
            return self._entries.get(key)

    def put(self, key: str, value: T) -> T:
        with self._lock:
            self._entries[key] = value
            return value

    def get_or_compute(self, key: str, factory: Callable[[], T]) -> T:
        """Return the cached value, computing and storing it on miss.

        The factory runs outside the lock: inference takes orders of
        magnitude longer than a dict probe, and two threads racing on
        the same key at worst duplicate one pure computation.
        """
        with self._lock:
            if key in self._entries:
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
        value = factory()
        with self._lock:
            return self._entries.setdefault(key, value)

    def absorb_stats(self, delta: dict[str, int]) -> None:
        """Fold a worker process's counter delta in, under the lock
        (concurrent campaigns absorb into one shared cache)."""
        with self._lock:
            self.stats.absorb(delta)

    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns whether it existed."""
        with self._lock:
            existed = self._entries.pop(key, None) is not None
            if existed:
                self.stats.invalidations += 1
            return existed

    def clear(self) -> None:
        with self._lock:
            self.stats.invalidations += len(self._entries)
            self._entries.clear()


class InferenceCache(ContentCache[SpexReport]):
    """`SpexReport`s keyed by `spex_fingerprint`."""

    def key_for(self, system, options: SpexOptions | None = None) -> str:
        """Key of one subject system's inference job (duck-typed: any
        object with `.sources` and `.annotations` works)."""
        return spex_fingerprint(system.sources, system.annotations, options)


def launch_fingerprint(
    system_name: str,
    config_text: str,
    requests: tuple[str, ...] = (),
    options_fingerprint: str = "",
) -> str:
    """Content hash of one interpreter launch.

    The key covers everything that determines a `ProcessResult` for a
    registered system: which system runs (its program and OS fixtures
    are a deterministic function of the name within one process), the
    rendered config text installed before boot, the exact request
    sequence driven through it, and the interpreter budget knobs via
    `InterpreterOptions.fingerprint()`.  Launches are pure - the
    emulated OS has no real clock or randomness - so two launches with
    equal keys produce interchangeable results.
    """
    digest = hashlib.sha256()
    digest.update(system_name.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(config_text.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(str(len(requests)).encode("utf-8"))
    for request in requests:
        digest.update(b"\x00")
        digest.update(request.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(options_fingerprint.encode("utf-8"))
    return digest.hexdigest()


class LaunchCache(ContentCache):
    """`ProcessResult`s keyed by `launch_fingerprint`.

    This is the injection hot path's cache: a campaign launches the
    interpreter once per startup plus once per functional test, and
    identical (config text, requests) pairs recur - several generation
    rules can serialize to the same erroneous config, re-runs repeat
    every baseline launch, and ablation sweeps repeat whole campaigns.
    All of those share one interpreter run.

    Cached `ProcessResult`s follow the store's immutable-by-convention
    contract; the harness reduces every result to what it reads back
    (no interpreter; startup runs keep their effective config values)
    *before* insertion, never after.
    """

    def key_for(
        self,
        system,
        config_text: str,
        requests: list[str] | None,
        options,
        options_fingerprint: str | None = None,
    ) -> str:
        """Key of one launch of a subject system (duck-typed: any
        object with a `.name` works; `options` needs `fingerprint()`).
        Callers on a hot path may pass a precomputed
        `options_fingerprint` to skip re-hashing unchanged options."""
        return launch_fingerprint(
            system.name,
            config_text,
            tuple(requests or ()),
            options_fingerprint
            if options_fingerprint is not None
            else options.fingerprint(),
        )


def snapshot_fingerprint(
    system_name: str,
    config_text: str,
    options_fingerprint: str,
    argv: tuple[str, ...] = (),
) -> str:
    """Key of one warm-boot record (`repro.runtime.snapshot`).

    Covers everything the boot prefix reads: which system boots (its
    program and OS fixtures are deterministic per name), the rendered
    config text, the launch argv (main's boot code reads it), and the
    interpreter knobs - including the engine, so tree and codegen
    launches never share a snapshot.  The request queue is
    deliberately absent: boot state is request-independent by the
    boundary's definition.
    """
    digest = hashlib.sha256()
    digest.update(b"boot\x00")
    digest.update(system_name.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(config_text.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(str(len(argv)).encode("utf-8"))
    for arg in argv:
        digest.update(b"\x00")
        digest.update(arg.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(options_fingerprint.encode("utf-8"))
    return digest.hexdigest()


class SnapshotCache(ContentCache[BootRecord]):
    """`BootRecord`s keyed by `snapshot_fingerprint`.

    Shared across harnesses (campaign batches, the fleet agreement
    sampler) so one config's boot prefix is interpreted at most twice
    per process - probe and capture - no matter how many launches
    replay it.  Records are mutated in place by the snapshot engine;
    all transitions derive from deterministic runs, so concurrent
    writers can only race to store equivalent values.  `boot_stats`
    counts resumes/boots/captures - the hit/miss counters of the base
    class are unused (records are bookkeeping containers, not results).
    """

    def __init__(self) -> None:
        super().__init__()
        self.boot_stats = BootStats()
        self._hints: dict[tuple[str, str], BoundaryHint] = {}

    def key_for(
        self,
        system,
        config_text: str,
        options,
        options_fingerprint: str | None = None,
        argv: tuple[str, ...] = (),
    ) -> str:
        """Key of one system config's boot record (duck-typed like
        `LaunchCache.key_for`)."""
        return snapshot_fingerprint(
            system.name,
            config_text,
            options_fingerprint
            if options_fingerprint is not None
            else options.fingerprint(),
            argv=argv,
        )

    def record_for(self, key: str) -> BootRecord:
        """The record under `key`, created empty on first use (no
        hit/miss accounting - `boot_stats` measures the work)."""
        with self._lock:
            record = self._entries.get(key)
            if record is None:
                record = self._entries[key] = BootRecord()
            return record

    def hint_for(
        self, system_name: str, options_fingerprint: str
    ) -> BoundaryHint:
        """The speculative boot-boundary hint shared by all configs of
        one (system, options) pair."""
        key = (system_name, options_fingerprint)
        with self._lock:
            hint = self._hints.get(key)
            if hint is None:
                hint = self._hints[key] = BoundaryHint()
            return hint

    def absorb_boot_stats(self, delta: dict[str, int]) -> None:
        """Fold a worker process's snapshot-engine counters in."""
        with self._lock:
            self.boot_stats.absorb(delta)


def checker_fingerprint(
    spex_key: str, default_config: str, dialect_repr: str
) -> str:
    """Key of one compiled config checker (`repro.checker.compile`):
    the inference fingerprint plus everything else compilation reads -
    the vendor template (calibration baseline and cross-parameter
    defaults) and the config dialect."""
    digest = hashlib.sha256()
    digest.update(spex_key.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(default_config.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(dialect_repr.encode("utf-8"))
    return digest.hexdigest()


# The store layers a process shard reports home in its envelope; the
# inference and campaign layers live in the parent only.
WORKER_LAYERS = ("launches", "snapshots", "checkers")


@dataclass
class PipelineCaches:
    """The cache layers one pipeline (or several, sharing) uses.

    `checkers` holds `CompiledChecker`s keyed by `checker_fingerprint`
    - the fleet validator's layer: re-checking a config fleet against
    an unchanged program re-infers and re-compiles nothing.
    """

    inference: InferenceCache = field(default_factory=InferenceCache)
    campaigns: ContentCache = field(default_factory=ContentCache)
    launches: LaunchCache = field(default_factory=LaunchCache)
    checkers: ContentCache = field(default_factory=ContentCache)
    snapshots: SnapshotCache = field(default_factory=SnapshotCache)

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Per-layer counters as plain dicts (what `stats` publishes)."""
        return {
            "inference": self.inference.stats.snapshot(),
            "campaigns": self.campaigns.stats.snapshot(),
            "launches": self.launches.stats.snapshot(),
            "checkers": self.checkers.stats.snapshot(),
            "snapshots": self.snapshots.boot_stats.snapshot(),
        }

    def delta(self, before: dict) -> dict[str, dict[str, int]]:
        """What the worker-shipped layers counted since `before` (a
        `snapshot`): the ``stats`` of a process shard's envelope."""
        after = self.snapshot()
        return {
            layer: {
                name: value - before[layer][name]
                for name, value in after[layer].items()
            }
            for layer in WORKER_LAYERS
        }

    def absorb(self, stats: dict[str, dict[str, int]]) -> None:
        """Fold a process shard's store deltas (`delta`) in: how what
        worker stores counted reaches the caller's stores."""
        self.launches.absorb_stats(stats.get("launches", {}))
        self.checkers.absorb_stats(stats.get("checkers", {}))
        self.snapshots.absorb_boot_stats(stats.get("snapshots", {}))

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-layer counters, routed through the metrics registry.

        Every counter is published as a ``cache.<layer>.<counter>``
        gauge on the process registry (`repro.obs`) and the returned
        mapping is read *back* from those gauges, so report footers,
        ``--json`` payloads and the serve ``metrics`` op all draw from
        one source.  The shape is byte-compatible with the
        pre-registry dict-of-snapshots form.
        """
        registry = get_registry()
        sections = self.snapshot()
        for layer, counters in sections.items():
            for name, value in counters.items():
                registry.gauge(f"cache.{layer}.{name}", value)
        return {
            layer: {
                name: registry.gauge_value(f"cache.{layer}.{name}")
                for name in counters
            }
            for layer, counters in sections.items()
        }

"""Content-addressed caches for the campaign pipeline.

Inference dominates nothing (campaigns do), but it is the part that is
*pure*: the same (program sources, annotations, options) triple always
produces the same `SpexReport`.  The pipeline therefore keys inference
results by a content hash of exactly that triple, so repeated
campaigns, ablation sweeps and multi-executor parity runs skip
re-inference entirely.  The launch store, the `SnapshotCache`
(defined beside the boot records it stores, in
`repro.runtime.snapshot`), works at the opposite end of the stack: it
backs the launch engine's warm-boot replay with per-config boot
records keyed by (system, config text, argv, interpreter options),
shared across harnesses so one config's boot prefix is interpreted
once - twice when its first run could not capture - and every later
launch of it resumes from the snapshot.  It is the only thing a
repeated launch reuses: every launch still runs its post-boot
statements, and a pipeline re-run re-executes every campaign against
these two stores.

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
from repro.runtime.snapshot import SnapshotCache

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
    implementing class - yields a new key even when inference is
    unchanged, so a checkpointed run (whose run key is built from
    these) never resumes campaigns of another spec."""
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
# inference layer lives in the parent only.  "launches" and
# "snapshots" are two views of one store, the `SnapshotCache`: its
# record lookups and its boot counters.
WORKER_LAYERS = ("launches", "snapshots", "checkers")


@dataclass
class PipelineCaches:
    """The cache layers one pipeline (or several, sharing) uses.

    `checkers` holds `CompiledChecker`s keyed by `checker_fingerprint`
    - the fleet validator's layer: re-checking a config fleet against
    an unchanged program re-infers and re-compiles nothing.
    `snapshots` is the launch store; its record lookups report as the
    "launches" section and its boot counters as "snapshots".
    """

    inference: InferenceCache = field(default_factory=InferenceCache)
    checkers: ContentCache = field(default_factory=ContentCache)
    snapshots: SnapshotCache = field(default_factory=SnapshotCache)

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Per-layer counters as plain dicts (what `stats` publishes)."""
        return {
            "inference": self.inference.stats.snapshot(),
            "launches": self.snapshots.lookup_stats(),
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
        self.snapshots.absorb(
            stats.get("launches", {}), stats.get("snapshots", {})
        )
        self.checkers.absorb_stats(stats.get("checkers", {}))

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-layer counters (`snapshot`), also published as
        ``cache.<layer>.<counter>`` gauges on the process registry
        (`repro.obs`) for the serve ``metrics`` op and telemetry
        readers.

        The mapping returned is this instance's own snapshot, never a
        read-back of the gauges: the registry is process-wide, so
        another `PipelineCaches` publishing between the two steps
        would hand this caller its counters.
        """
        registry = get_registry()
        sections = self.snapshot()
        for layer, counters in sections.items():
            for name, value in counters.items():
                registry.gauge(f"cache.{layer}.{name}", value)
        return sections

"""The store layer: one content-addressed store, one counter shape,
one key format.

Every store of the stack is a `ContentCache`: inference reports and
compiled checkers (`repro.pipeline.cache`) and the launch store's boot
records (`repro.runtime.snapshot.SnapshotCache`).  Every key is a
`content_key` over the parts a stored value depends on, so a changed
part yields a new key and a stale entry is never served (it is merely
unreferenced).  Every store's work counters derive from `Counters`,
whose `snapshot`/`absorb` pair is how a worker process's counts reach
the parent's stores.

A leaf module: the runtime and the pipeline both build on it, and it
imports neither.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, fields
from typing import Callable, Generic, TypeVar

T = TypeVar("T")


def content_key(*parts: str) -> str:
    """SHA-256 hex digest of `parts`, each prefixed by its byte length,
    so two different part sequences never share a key (``("ab", "c")``
    and ``("a", "bc")`` included)."""
    digest = hashlib.sha256()
    for part in parts:
        data = part.encode("utf-8")
        digest.update(len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()


class Counters:
    """Base of a store's work counters: every dataclass field of a
    subclass is an int counter.

    `snapshot` and `absorb` take the counters' `lock`, so concurrent
    absorbs of worker deltas sum exactly.
    """

    def __post_init__(self) -> None:
        self.lock = threading.Lock()

    def snapshot(self) -> dict[str, int]:
        with self.lock:
            return {f.name: getattr(self, f.name) for f in fields(self)}

    def absorb(self, delta: dict[str, int]) -> None:
        """Fold a snapshot-shaped delta in (how counters observed in a
        worker process reach the parent's stores)."""
        with self.lock:
            for f in fields(self):
                name = f.name
                setattr(self, name, getattr(self, name) + delta.get(name, 0))


@dataclass
class CacheStats(Counters):
    """Lookups of one `ContentCache`: a miss for each entry a lookup
    creates, a hit for every other."""

    hits: int = 0
    misses: int = 0


class ContentCache(Generic[T]):
    """A thread-safe content-addressed store with hit/miss counters.

    Values are immutable-by-convention: callers must not mutate a
    cached object after `put`, because later lookups return the same
    instance (executor-parity tests rely on this determinism).  The
    entries and their counters share the counters' lock, so a lookup's
    count and an absorbed worker delta never tear each other.
    """

    def __init__(self) -> None:
        self._entries: dict[str, T] = {}
        self.stats = CacheStats()
        self._lock = self.stats.lock

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

    def peek(self, key: str) -> T | None:
        """Read without touching the counters - for bookkeeping reads
        of entries some earlier call populated (the counters measure
        *work avoided*, not lookups)."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, value: T) -> T:
        with self._lock:
            self._entries[key] = value
            return value

    def get_or_compute(self, key: str, factory: Callable[[], T]) -> T:
        """Return the stored value, computing and storing it when the
        key has none.

        The factory runs outside the lock: inference takes orders of
        magnitude longer than a dict probe, and two threads racing on
        the same key at worst duplicate one pure computation.  Only
        the caller whose value is kept counts a miss; a racing caller
        whose value is discarded counts a hit, so the misses are
        exactly the entries created.
        """
        with self._lock:
            if key in self._entries:
                self.stats.hits += 1
                return self._entries[key]
        value = factory()
        with self._lock:
            kept = self._entries.setdefault(key, value)
            if kept is value:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return kept

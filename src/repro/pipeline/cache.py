"""Content-addressed caches for the campaign pipeline.

Inference dominates nothing (campaigns do), but it is the part that is
*pure*: the same (program sources, annotations) pair always produces
the same `SpexReport` under the paper's inference settings, the only
ones a campaign runs.  The pipeline therefore keys inference results
by a content hash of exactly that pair, so repeated campaigns and
multi-executor parity runs skip re-inference entirely.  The launch
store, the `SnapshotCache` (defined beside the boot records it stores,
in `repro.runtime.snapshot`), works at the opposite end of the stack:
it backs the launch engine's warm-boot replay with per-config boot
records keyed by (system, config text, argv, interpreter options),
shared across harnesses so one config's boot prefix is interpreted
once - twice when its first run could not capture - and every later
launch of it resumes from the snapshot.  It is the only thing a
repeated launch reuses: every launch still runs its post-boot
statements, and a pipeline re-run re-executes every campaign against
these two stores.

Every store here is a `repro.store.ContentCache` and every key a
`repro.store.content_key`; a changed source file or annotation block
yields a new key, so stale entries are never served (they are merely
unreferenced).  `ContentCache` and `CacheStats` live in that leaf
module, which the launch store imports too, and are re-exported here.

Usage::

    cache = InferenceCache()
    key = spex_fingerprint(system.sources, system.annotations)
    report = cache.get_or_compute(key, lambda: engine.run())
    cache.stats.hits, cache.stats.misses
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.engine import SpexReport
from repro.obs.metrics import get_registry
from repro.runtime.snapshot import SnapshotCache
from repro.store import CacheStats, ContentCache, Counters, content_key


def spex_fingerprint(sources: dict[str, str], annotations: str) -> str:
    """Content hash of one inference job.

    The key covers everything `SpexEngine` reads besides its default
    options: every source file (name and text, order-independent) and
    the mapping annotations.
    """
    return content_key(
        *(part for name in sorted(sources) for part in (name, sources[name])),
        annotations,
    )


class InferenceCache(ContentCache[SpexReport]):
    """`SpexReport`s keyed by `spex_fingerprint`."""

    def key_for(self, system) -> str:
        """Key of one subject system's inference job (duck-typed: any
        object with `.sources` and `.annotations` works)."""
        return spex_fingerprint(system.sources, system.annotations)


def checker_fingerprint(
    spex_key: str, default_config: str, dialect_repr: str
) -> str:
    """Key of one compiled config checker (`repro.checker.compile`):
    the inference fingerprint plus everything else compilation reads -
    the vendor template (calibration baseline and cross-parameter
    defaults) and the config dialect."""
    return content_key(spex_key, default_config, dialect_repr)


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
    "launches" section and its boot counters as "snapshots".  Every
    instance starts with empty stores of its own; share one by passing
    the instance.
    """

    inference: InferenceCache = field(
        default_factory=InferenceCache, init=False
    )
    checkers: ContentCache = field(default_factory=ContentCache, init=False)
    snapshots: SnapshotCache = field(
        default_factory=SnapshotCache, init=False
    )

    def _sections(self) -> dict[str, Counters]:
        """Every published section and the counters behind it."""
        return {
            "inference": self.inference.stats,
            "launches": self.snapshots.stats,
            "checkers": self.checkers.stats,
            "snapshots": self.snapshots.boot_stats,
        }

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Per-layer counters as plain dicts (what `stats` publishes)."""
        return {
            layer: counters.snapshot()
            for layer, counters in self._sections().items()
        }

    def delta(self, before: dict) -> dict[str, dict[str, int]]:
        """What the worker-shipped layers counted since `before` (a
        `snapshot`): the ``stats`` of a process shard's envelope."""
        sections = self._sections()
        return {
            layer: {
                name: value - before[layer][name]
                for name, value in sections[layer].snapshot().items()
            }
            for layer in WORKER_LAYERS
        }

    def absorb(self, stats: dict[str, dict[str, int]]) -> None:
        """Fold a process shard's store deltas (`delta`) in: how what
        worker stores counted reaches the caller's stores."""
        sections = self._sections()
        for layer in WORKER_LAYERS:
            sections[layer].absorb(stats.get(layer, {}))

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

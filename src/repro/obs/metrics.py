"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The registry mirrors the store counters' protocol
(``repro.store.Counters``) exactly: ``snapshot()`` returns plain
nested dicts, ``metrics_delta(before, after)`` subtracts two
snapshots, and ``absorb(delta)`` folds a delta in.  Process-executor
workers snapshot at task start, do their work, and ship
``metrics_delta(before, registry.snapshot())`` back over the pickle
boundary; the parent absorbs it — the same fold every store's
counters take through ``PipelineCaches.absorb``, so thread workers
(which share the registry) never double-count.

Histograms are *fixed-bucket*: the bucket edges are chosen at first
``observe`` and become part of the histogram's identity.  Two
snapshots only delta/absorb when their edges agree, which keeps the
merge a pure element-wise sum.

``set_enabled(False)`` is the kill switch for the always-on side:
``inc`` and ``observe`` become no-ops on every registry in the
process.  Gauges are exempt — they carry state the reporting layer
reads back out (cache counters for the pipeline footer), so disabling
telemetry must not blank them.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

# Latency-flavoured defaults (seconds): wide enough for a 79us warm
# launch and a multi-second cold campaign in one scheme.
DEFAULT_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)

_ENABLED = True


def enabled() -> bool:
    """True when counters/histograms record (gauges always do)."""
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Flip the process-wide telemetry switch; returns the old value."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


class MetricsRegistry:
    """Thread-safe named counters, gauges and fixed-bucket histograms.

    Metric names are dotted strings (``"launch.boot_seconds"``); the
    taxonomy is documented in docs/OBSERVABILITY.md.  All mutation
    happens under one lock — the hot paths sample (``LaunchProfiler``)
    or batch, so contention stays negligible.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, dict] = {}

    # -- recording ----------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(
        self, name: str, value: float, buckets: tuple = DEFAULT_BUCKETS
    ) -> None:
        if not _ENABLED:
            return
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = {
                    "buckets": list(buckets),
                    "counts": [0] * (len(buckets) + 1),
                    "count": 0,
                    "sum": 0.0,
                }
                self._histograms[name] = hist
            hist["counts"][bisect_left(hist["buckets"], value)] += 1
            hist["count"] += 1
            hist["sum"] += value

    # -- reading ------------------------------------------------------

    def counter_value(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> float:
        """The gauge's last value; 0 if it was never set."""
        with self._lock:
            return self._gauges.get(name, 0)

    def snapshot(self) -> dict:
        """Deep plain-dict copy: ``{"counters", "gauges", "histograms"}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {
                        "buckets": list(hist["buckets"]),
                        "counts": list(hist["counts"]),
                        "count": hist["count"],
                        "sum": hist["sum"],
                    }
                    for name, hist in self._histograms.items()
                },
            }

    # -- folding ------------------------------------------------------

    def absorb(self, delta: dict) -> None:
        """Fold a ``metrics_delta`` from a worker into this registry."""
        with self._lock:
            for name, amount in delta.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + amount
            for name, value in delta.get("gauges", {}).items():
                self._gauges[name] = value
            for name, incoming in delta.get("histograms", {}).items():
                hist = self._histograms.get(name)
                if hist is None:
                    self._histograms[name] = {
                        "buckets": list(incoming["buckets"]),
                        "counts": list(incoming["counts"]),
                        "count": incoming["count"],
                        "sum": incoming["sum"],
                    }
                    continue
                if hist["buckets"] != list(incoming["buckets"]):
                    raise ValueError(
                        f"histogram {name!r}: bucket edges disagree"
                    )
                hist["counts"] = [
                    mine + theirs
                    for mine, theirs in zip(hist["counts"], incoming["counts"])
                ]
                hist["count"] += incoming["count"]
                hist["sum"] += incoming["sum"]


def metrics_delta(before: dict, after: dict) -> dict:
    """What happened between two snapshots, as an absorbable delta.

    Counters and histograms subtract element-wise (keys only ever
    grow, mirroring the store counters' deltas).  Gauges are
    point-in-time *process-local* state — a forked worker inherits the
    parent's values, so shipping them back would overwrite fresher
    parent state with stale copies; deltas therefore never carry
    gauges (the reporting layer re-publishes them at read time).
    """
    counters = {
        name: value - before.get("counters", {}).get(name, 0)
        for name, value in after.get("counters", {}).items()
    }
    histograms = {}
    for name, hist in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(name)
        if prior is None:
            histograms[name] = hist
            continue
        if prior["buckets"] != hist["buckets"]:
            raise ValueError(f"histogram {name!r}: bucket edges disagree")
        histograms[name] = {
            "buckets": list(hist["buckets"]),
            "counts": [
                now - then
                for now, then in zip(hist["counts"], prior["counts"])
            ],
            "count": hist["count"] - prior["count"],
            "sum": hist["sum"] - prior["sum"],
        }
    return {
        "counters": counters,
        "gauges": {},
        "histograms": histograms,
    }


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (pillars record here)."""
    return _REGISTRY

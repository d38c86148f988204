"""Sampled profiling hooks for the launch engine.

Per-statement instrumentation would dwarf the codegen engine's wins,
so the profiler samples whole *launches*: every ``sample_every``-th
launch (the first one included, so short runs still produce data) has
its boot and replay phases timed and its step-budget consumption
recorded as histograms on the metrics registry.  Off-sample launches
pay one atomic counter step; ``repro.obs.set_enabled(False)`` reduces
even that to a boolean check.
"""

from __future__ import annotations

import itertools

from repro.obs import metrics as _metrics
from repro.obs.metrics import MetricsRegistry, get_registry

SAMPLE_EVERY = 32

# Step-budget buckets: the default budget is 400_000 steps.
STEP_BUCKETS = (
    100.0, 500.0, 1_000.0, 5_000.0, 10_000.0,
    50_000.0, 100_000.0, 400_000.0,
)


class LaunchProfiler:
    """Decides which launches to time and records their phases."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        sample_every: int = SAMPLE_EVERY,
    ) -> None:
        self.registry = registry if registry is not None else get_registry()
        self.sample_every = max(1, sample_every)
        # `next()` on an `itertools.count` is one C call under the GIL:
        # atomic across threads without a lock on the launch path.
        self._seen = itertools.count(1)

    def should_sample(self) -> bool:
        """Count one launch; true on the 1st, N+1th, 2N+1th, ..."""
        if not _metrics.enabled():
            return False
        seen = next(self._seen)
        return seen % self.sample_every == 1 or self.sample_every == 1

    def record_phase(self, phase: str, seconds: float) -> None:
        """``phase`` is ``boot``, ``resume`` or ``replay``."""
        self.registry.observe(f"launch.{phase}_seconds", seconds)

    def record_steps(self, steps: int) -> None:
        self.registry.observe("launch.steps", steps, buckets=STEP_BUCKETS)


_PROFILER = LaunchProfiler()


def default_profiler() -> LaunchProfiler:
    """The process-wide profiler the injection harness samples with."""
    return _PROFILER

"""Unified telemetry: metrics, spans, and sampled profiling hooks.

The stack's only visibility used to be cache counters surfaced in
report footers.  ``repro.obs`` makes telemetry a first-class,
zero-dependency layer:

* :mod:`repro.obs.metrics` — a process-local :class:`MetricsRegistry`
  of named counters, gauges and fixed-bucket histograms with the same
  thread-safe ``snapshot()`` / delta / ``absorb()`` protocol every
  store's counters use (``repro.store.Counters``), so process-executor
  workers fold their metrics into the parent exactly like store deltas.
* :mod:`repro.obs.trace` — hierarchical spans with monotonic timings,
  parent ids taken per context (each thread and asyncio task nests
  only its own spans) and an NDJSON exporter.  The clock is injected
  so traces stay deterministic in tests; the default tracer is
  disabled and the disabled path costs one attribute check.
* :mod:`repro.obs.profile` — :class:`LaunchProfiler`, the sampled
  (every Nth launch, never per-statement) boot/replay/step-budget
  profiling hook the launch engine calls into.

``set_enabled(False)`` turns the always-on metrics side off entirely;
``benchmarks/test_obs_overhead.py`` pins the enabled-vs-disabled warm
launch throughput gap at <=5%.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    enabled,
    get_registry,
    metrics_delta,
    set_enabled,
)
from repro.obs.profile import LaunchProfiler, default_profiler
from repro.obs.trace import (
    NdjsonSink,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    span,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "LaunchProfiler",
    "MetricsRegistry",
    "NdjsonSink",
    "Span",
    "Tracer",
    "default_profiler",
    "enabled",
    "get_registry",
    "get_tracer",
    "metrics_delta",
    "set_enabled",
    "set_tracer",
    "span",
]

"""Parallel batched campaign pipeline with inference caching.

The paper's evaluation (Table 5) sweeps injection campaigns over
seven subject systems (eight here, with nginx); this package turns
that sweep into a first-class workload: campaigns fan out across a
pluggable executor, SPEX inference results are cached by content hash
so re-runs skip re-inference, and one launch store
lets a re-run resume every launch from its config's boot record.

Layering: `repro.pipeline` sits above `repro.inject` (the single-
system primitive) and `repro.systems` (the registry), and below
`repro.reporting` (which renders the aggregate report and exposes the
`pipeline` CLI command).
"""

from repro.pipeline.cache import (
    CacheStats,
    ContentCache,
    InferenceCache,
    PipelineCaches,
    checker_fingerprint,
    spex_fingerprint,
)
from repro.pipeline.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    executor_names,
    resolve_executor,
)
from repro.pipeline.runner import (
    CampaignPipeline,
    PipelineReport,
    SystemRun,
)

__all__ = [
    "CacheStats",
    "CampaignPipeline",
    "ContentCache",
    "Executor",
    "InferenceCache",
    "PipelineCaches",
    "PipelineReport",
    "ProcessExecutor",
    "SerialExecutor",
    "SystemRun",
    "ThreadExecutor",
    "checker_fingerprint",
    "executor_names",
    "resolve_executor",
    "spex_fingerprint",
]

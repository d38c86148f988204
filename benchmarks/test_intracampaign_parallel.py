"""Intra-campaign sharding and launch-cache benchmarks.

PR 1 parallelized *across* systems; these benches demonstrate the
next layer down over all eight registered systems:

* intra-campaign thread and process execution (batches of one
  campaign fanned over an executor) produce `Vulnerability` sets
  identical to the serial loop on every system;
* the content-addressed launch cache turns repeated interpreter runs
  into hits - a launch-warm sweep is measurably faster on every
  multi-test system, and the hit counters surface in the
  `PipelineReport`.

Inference is shared across all sweeps (it is executor-independent),
so each sweep times the injection loop, not re-inference; the
thread/process sweeps get *cold* launch caches so the executors do
real concurrent interpreter work.
"""

import os
import time

import pytest

from conftest import emit

from repro.pipeline import CampaignPipeline, PipelineCaches


def _timed(pipeline):
    started = time.perf_counter()
    report = pipeline.run()
    return report, time.perf_counter() - started


@pytest.fixture(scope="module")
def base_caches():
    """Caches with inference pre-warmed for every system, so every
    timed sweep - including the serial reference - measures the
    injection loop only."""
    from repro.inject.campaign import Campaign
    from repro.systems.registry import iter_systems

    caches = PipelineCaches()
    for system in iter_systems(None):
        Campaign(system, inference_cache=caches.inference).run_spex()
    return caches


@pytest.fixture(scope="module")
def cold_serial(base_caches):
    """The reference: one launch-cold serial sweep, every batch in-line."""
    pipeline = CampaignPipeline(caches=base_caches, reuse_campaigns=False)
    report, duration = _timed(pipeline)
    emit(
        f"Intra-campaign serial (cold): {duration:.2f}s, "
        f"{report.total_misconfigurations()} misconfigurations, "
        f"{report.total_vulnerabilities()} vulnerabilities over "
        f"{len(report.runs)} systems"
    )
    return report, duration


def _sharded_sweep(base_caches, batch_executor):
    # Fresh campaign/launch caches, shared inference: the sweep
    # re-executes every campaign and every launch, sharded.
    caches = PipelineCaches(inference=base_caches.inference)
    pipeline = CampaignPipeline(
        caches=caches,
        reuse_campaigns=False,
        batch_executor=batch_executor,
        max_workers=4,
    )
    return _timed(pipeline)


@pytest.mark.parametrize("batch_executor", ["thread", "process"])
def test_intracampaign_sharding_parity(cold_serial, base_caches, batch_executor):
    reference, serial_duration = cold_serial
    report, duration = _sharded_sweep(base_caches, batch_executor)
    assert len(report.runs) == 8
    assert report.vulnerability_sets() == reference.vulnerability_sets()
    assert (
        report.total_misconfigurations()
        == reference.total_misconfigurations()
    )
    per_system = {run.name: run.report.total() for run in report.runs}
    reference_counts = {
        run.name: run.report.total() for run in reference.runs
    }
    assert per_system == reference_counts
    emit(
        f"Intra-campaign {batch_executor} sharding: {duration:.2f}s vs "
        f"serial {serial_duration:.2f}s ({os.cpu_count()} cores), "
        f"identical vulnerability sets across {len(report.runs)} systems"
    )


def test_launch_warm_sweep_speedup_on_multi_test_systems(
    cold_serial, base_caches
):
    cold, cold_duration = cold_serial
    pipeline = CampaignPipeline(caches=base_caches, reuse_campaigns=False)
    warm, duration = _timed(pipeline)
    assert warm.vulnerability_sets() == cold.vulnerability_sets()
    # The warm sweep re-executed every campaign (reuse_campaigns is
    # off) but served every interpreter launch from the cache - the
    # PipelineReport's footer stats carry the evidence.
    launches = warm.cache_stats["launches"]
    assert launches["hits"] > 0
    speedup = cold_duration / max(duration, 1e-9)
    per_system = []
    for cold_run, warm_run in zip(cold.runs, warm.runs):
        per_system.append(
            f"{cold_run.name} {cold_run.duration:.2f}s->"
            f"{warm_run.duration:.3f}s"
        )
        # Every registered system drives a multi-test functional
        # suite; a launch-warm campaign must beat its cold self.  The
        # per-system check only binds where the cold run is big enough
        # for the comparison to be scheduler-noise-proof; the
        # aggregate 2x floor below covers the rest.
        if cold_run.duration > 0.5:
            assert warm_run.duration < cold_run.duration, cold_run.name
    emit(
        f"Launch-cache warm sweep: {cold_duration:.2f}s cold -> "
        f"{duration:.2f}s warm ({speedup:.1f}x); per-system: "
        + "; ".join(per_system)
    )
    assert speedup >= 2.0

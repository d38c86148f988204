"""Scaling benchmarks for the batched campaign pipeline.

Demonstrates the throughput claims of the pipeline subsystem over
*all* registered systems:

* a warm (cached) pipeline re-run is at least 2x faster than the cold
  serial sweep - in practice orders of magnitude, since every campaign
  is served from the content-addressed cache;
* every executor (serial, thread, process) produces identical
  vulnerability sets, so parallel speed costs no fidelity;
* the content-addressed launch cache turns repeated interpreter runs
  into hits - a launch-warm sweep that re-executes every campaign is
  measurably faster on every multi-test system, and the hit counters
  surface in the `PipelineReport`.
"""

import time

import pytest

from conftest import emit

from repro.pipeline import CampaignPipeline, PipelineCaches


def _timed_run(pipeline, **kwargs):
    started = time.perf_counter()
    report = pipeline.run(**kwargs)
    return report, time.perf_counter() - started


@pytest.fixture(scope="module")
def cold_serial():
    """One cold serial sweep over every registered system; the module's
    reference for both the speedup and the parity checks."""
    pipeline = CampaignPipeline(executor="serial")
    report, duration = _timed_run(pipeline)
    return pipeline, report, duration


def test_cached_rerun_at_least_2x_faster(cold_serial):
    pipeline, cold_report, cold_duration = cold_serial
    warm_report, warm_duration = _timed_run(pipeline)

    assert warm_report.cached_count() == len(warm_report.runs)
    assert (
        warm_report.vulnerability_sets() == cold_report.vulnerability_sets()
    )
    assert (
        warm_report.total_misconfigurations()
        == cold_report.total_misconfigurations()
    )
    speedup = cold_duration / max(warm_duration, 1e-9)
    emit(
        f"Pipeline over {len(cold_report.runs)} systems: cold serial "
        f"{cold_duration:.2f}s, cached re-run {warm_duration:.4f}s "
        f"({speedup:.0f}x); {cold_report.total_vulnerabilities()} "
        "vulnerabilities in both"
    )
    assert speedup >= 2.0


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_executor_parity_over_all_systems(cold_serial, executor):
    _, cold_report, cold_duration = cold_serial
    # Worker count defaults to the hardware: on a many-core box the
    # process pool is the fast path, on one core it degrades to
    # roughly serial plus fork overhead - parity must hold either way.
    pipeline = CampaignPipeline(executor=executor)
    report, duration = _timed_run(pipeline)

    assert report.vulnerability_sets() == cold_report.vulnerability_sets()
    counts = {run.name: run.report.total() for run in report.runs}
    cold_counts = {
        run.name: run.report.total() for run in cold_report.runs
    }
    assert counts == cold_counts
    emit(
        f"{executor} executor: {duration:.2f}s vs serial "
        f"{cold_duration:.2f}s, identical vulnerability sets across "
        f"{len(counts)} systems"
    )


def _timed(pipeline):
    started = time.perf_counter()
    report = pipeline.run()
    return report, time.perf_counter() - started


@pytest.fixture(scope="module")
def base_caches():
    """Caches with inference pre-warmed for every system, so the
    launch-cache sweeps time the injection loop, not re-inference."""
    from repro.inject.campaign import Campaign
    from repro.systems.registry import iter_systems

    caches = PipelineCaches()
    for system in iter_systems(None):
        Campaign(system, inference_cache=caches.inference).run_spex()
    return caches


@pytest.fixture(scope="module")
def launch_cold_serial(base_caches):
    """One launch-cold serial sweep on pre-warmed inference."""
    pipeline = CampaignPipeline(caches=base_caches, reuse_campaigns=False)
    report, duration = _timed(pipeline)
    emit(
        f"Launch-cold serial sweep: {duration:.2f}s, "
        f"{report.total_misconfigurations()} misconfigurations, "
        f"{report.total_vulnerabilities()} vulnerabilities over "
        f"{len(report.runs)} systems"
    )
    return report, duration


def test_launch_warm_sweep_speedup_on_multi_test_systems(
    launch_cold_serial, base_caches
):
    cold, cold_duration = launch_cold_serial
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

"""Scaling benchmarks for the batched campaign pipeline.

Demonstrates the throughput claims of the pipeline subsystem over
*all* registered systems:

* a warm pipeline re-run is at least 2x faster than the cold serial
  sweep while executing every campaign again: inference is served
  from the content-addressed cache and every launch resumes from the
  boot record the cold sweep left in the launch store;
* every executor (serial, thread, process) produces identical
  vulnerability sets, so parallel speed costs no fidelity.
"""

import time

import pytest

from conftest import emit

from repro.pipeline import CampaignPipeline


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

    assert len(warm_report.runs) == len(cold_report.runs)
    for cold_run, warm_run in zip(cold_report.runs, warm_report.runs):
        assert warm_run.report is not cold_run.report
    launches = warm_report.cache_stats["launches"]
    assert launches["misses"] == cold_report.cache_stats["launches"]["misses"]
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
        f"{cold_duration:.2f}s, warm re-run {warm_duration:.4f}s "
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

"""Telemetry overhead: the always-on side must be nearly free.

`repro.obs` counters and sampled histograms live on the harness's hot
launch path, so this benchmark pins the cost: warm launch throughput
with telemetry enabled must stay within ``MAX_OVERHEAD`` (5%) of
disabled, and a campaign pipeline run must produce **bit-identical**
vulnerability sets and cache-stats footers either way — telemetry can
never change results, only record them.  The measured overhead is
printed with the benchmark tier's output; `perfbench/` is the repo's
recorded benchmark (`obs.trace_overhead_fraction`).
"""

import time

import pytest

from conftest import emit

from repro.inject.harness import InjectionHarness
from repro.obs import set_enabled
from repro.pipeline import CampaignPipeline
from repro.systems import get_system

SYSTEM = "vsftpd"
PASSES = 150
TRIALS = 3
MAX_OVERHEAD = 0.05


def _launch_pass(harness, system) -> int:
    """One startup launch plus every functional test (the warm
    steady state the launch engine optimises for)."""
    harness.launch(system.default_config)
    for test in system.tests:
        harness.launch(system.default_config, test.requests)
    return 1 + len(system.tests)


def _throughput(harness, system) -> float:
    started = time.perf_counter()
    launches = sum(_launch_pass(harness, system) for _ in range(PASSES))
    return launches / (time.perf_counter() - started)


@pytest.fixture(scope="module")
def warm_harness():
    system = get_system(SYSTEM)
    harness = InjectionHarness(system)
    _launch_pass(harness, system)  # learn the boot boundary
    return harness, system


def test_enabled_warm_launch_throughput_within_budget(warm_harness):
    """Alternate enabled/disabled trials on one warm harness and keep
    each mode's best rate — noise only ever slows a trial down, so
    best-of-N isolates the telemetry cost from scheduler jitter."""
    harness, system = warm_harness
    enabled_best = 0.0
    disabled_best = 0.0
    for _ in range(TRIALS):
        enabled_best = max(enabled_best, _throughput(harness, system))
        previous = set_enabled(False)
        try:
            disabled_best = max(disabled_best, _throughput(harness, system))
        finally:
            set_enabled(previous)
    overhead = (disabled_best - enabled_best) / disabled_best
    emit(
        f"obs overhead: enabled {enabled_best:.0f} launches/s vs "
        f"disabled {disabled_best:.0f} launches/s -> "
        f"{overhead * 100:+.1f}% (budget {MAX_OVERHEAD * 100:.0f}%)"
    )
    assert enabled_best > 0 and disabled_best > 0
    assert overhead <= MAX_OVERHEAD


def test_telemetry_never_changes_pipeline_results():
    """Verdicts and the cache-stats footer are bit-identical with
    telemetry on and off; only the recording differs."""
    enabled_report = CampaignPipeline(systems=[SYSTEM]).run()
    previous = set_enabled(False)
    try:
        disabled_report = CampaignPipeline(systems=[SYSTEM]).run()
    finally:
        set_enabled(previous)
    assert (
        disabled_report.vulnerability_sets()
        == enabled_report.vulnerability_sets()
    )
    assert disabled_report.cache_stats == enabled_report.cache_stats

"""Recovery is cheap: a fleet run that meets injected faults and
retries its way through them may cost at most ``MAX_OVERHEAD`` (15%)
more wall clock than the same run fault-free, and must report exactly
what the fault-free run reports.

The two modes are timed in pairs, swapping which one goes first every
pair, and the gate reads the median of the per-pair overhead ratios.
Machine-speed drift then lands on both sides of a pair alike, and the
median ignores the odd pair a scheduler hiccup or GC pause slows down.
"""

import statistics
import time

import pytest

from test_resume_parity import _counter_delta, _counters, _fleet_view

from repro.chaos import ChaosSchedule
from repro.checker import run_fleet
from repro.pipeline import PipelineCaches
from repro.resilience import RetryPolicy

pytestmark = pytest.mark.bench

SYSTEMS = ["mysql", "postgresql"]
SIZE = 384
SEED = 3
CHUNK = 32  # 12 chunks per system -> 24 shards
PAIRS = 15
MAX_OVERHEAD = 0.15

# Seed 3 at 5% fires exactly two first-attempt errors (and no stall)
# over the 24 shards (the schedule is a pure hash), so every chaos run
# really exercises recovery.
CHAOS = ChaosSchedule(
    seed=3, error_rate=0.05, stall_rate=0.05, stall_seconds=0.002
)
POLICY = RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.01)
RETRIES = 2


def _timed_run(caches, chaotic: bool):
    """(seconds, report, retries) for one fleet run."""
    extra = {"chaos": CHAOS, "retry_policy": POLICY} if chaotic else {}
    before = _counters()
    started = time.perf_counter()
    report = run_fleet(
        systems=SYSTEMS, size=SIZE, seed=SEED, executor="serial",
        chunk_size=CHUNK, caches=caches, **extra,
    )
    elapsed = time.perf_counter() - started
    return elapsed, report, _counter_delta(before, "resilience.retries")


def test_recovery_overhead_within_budget():
    caches = PipelineCaches()
    # One untimed fault-free run warms inference and checker
    # compilation, so the pairs compare validation, not compilation,
    # and gives the view every chaos run must reproduce.
    _, report, _ = _timed_run(caches, chaotic=False)
    baseline = _fleet_view(report)
    ratios = []
    for index in range(PAIRS):
        chaos_first = index % 2 == 0
        seconds = {}
        for chaotic in (chaos_first, not chaos_first):
            seconds[chaotic], report, retries = _timed_run(caches, chaotic)
            if chaotic:
                assert report.failed_shards == []
                assert retries == RETRIES
                assert _fleet_view(report) == baseline
        ratios.append(seconds[True] / seconds[False] - 1.0)
    overhead = statistics.median(ratios)
    print(
        f"\nrecovery overhead: median {overhead:+.1%} over {PAIRS} pairs "
        f"(range {min(ratios):+.1%} to {max(ratios):+.1%})"
    )
    assert overhead <= MAX_OVERHEAD, (
        f"recovery costs {overhead:.1%} over fault-free "
        f"(limit {MAX_OVERHEAD:.0%})"
    )

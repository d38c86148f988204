"""Fleet-scale config-checking benchmarks.

Demonstrates the third pillar's throughput and fidelity claims over
all registered systems:

* ≥ 10,000 synthetic user configs validate in one fleet run, with
  throughput (configs/sec) reported;
* the compiled-checker cache makes warm re-runs skip every compile
  (hit rate reported and asserted);
* thread and process executors produce bit-identical fleet results,
  and the process executor beats serial wall-clock when the hardware
  has cores to offer (asserted only on multi-core hosts - on one core
  a process pool is fork overhead plus the same work);
* checker precision against planted ground truth is 1.0, recall is
  high, and a seeded sample of flagged configs is confirmed
  misbehaving under the injection harness.
"""

import os
import time

import pytest

from conftest import emit

from repro.checker import run_fleet
from repro.pipeline import PipelineCaches

SIZE_PER_SYSTEM = 1500  # x8 systems = 12,000 configs
AGREEMENT_SAMPLE = 25


def _summary(report):
    return [
        (
            r.name,
            r.corpus_size,
            r.planted,
            r.flagged,
            r.errors,
            r.warnings,
            sorted(r.by_kind.items()),
            r.scores,
        )
        for r in report.results
    ]


@pytest.fixture(scope="module")
def caches():
    return PipelineCaches()


@pytest.fixture(scope="module")
def cold_serial(caches):
    started = time.perf_counter()
    report = run_fleet(
        size=SIZE_PER_SYSTEM,
        seed=0,
        executor="serial",
        caches=caches,
        agreement_sample=AGREEMENT_SAMPLE,
    )
    return report, time.perf_counter() - started


def test_fleet_scale_and_throughput(cold_serial):
    report, duration = cold_serial
    assert report.total_configs >= 10_000
    assert len(report.results) == 8
    emit(
        f"Fleet: {report.total_configs} configs over "
        f"{len(report.results)} systems in {duration:.2f}s "
        f"({report.throughput():.0f} configs/s, serial)"
    )
    assert report.throughput() > 0


def test_precision_recall_against_planted_truth(cold_serial):
    report, _ = cold_serial
    scores = report.scores()
    # Clean fleet members equal the calibrated vendor template, so a
    # false positive would mean the checker blames a blameless user.
    assert scores.false_positives == 0
    assert scores.precision == 1.0
    assert scores.recall is not None and scores.recall >= 0.85
    for result in report.results:
        assert result.scores.precision == 1.0
        assert result.scores.recall >= 0.7
    emit(
        "Fleet precision/recall vs planted mistakes: "
        f"P={scores.precision:.3f} R={scores.recall:.3f} "
        f"(TP={scores.true_positives}, FN={scores.false_negatives})"
    )


def test_flagged_sample_misbehaves_under_interpreter(cold_serial):
    report, _ = cold_serial
    agreement = report.agreement
    assert agreement is not None
    assert agreement.sampled == AGREEMENT_SAMPLE
    # The ground-truth loop re-runs each sampled flagged config under
    # the injection harness; the checker's word holds when the system
    # observably misbehaves (or pinpoints the mistake).  The rare
    # remainder are latent mistakes today's runtime tolerates (the
    # measured rate is ~0.9; 0.75 absorbs sampling variance).
    assert agreement.confirmed_fraction >= 0.75
    emit(
        f"Interpreter agreement: {agreement.confirmed}/"
        f"{agreement.sampled} flagged configs confirmed misbehaving, "
        f"{agreement.refuted} tolerated"
    )


@pytest.fixture(scope="module")
def warm_serial(cold_serial, caches):
    """A fully warm serial re-run: checkers and inference cached, so
    its duration is pure corpus-generation + validation work - the
    fair reference for executor speedup comparisons."""
    started = time.perf_counter()
    report = run_fleet(
        size=SIZE_PER_SYSTEM, seed=0, executor="serial", caches=caches
    )
    return report, time.perf_counter() - started


def test_warm_rerun_hits_checker_cache(cold_serial, warm_serial, caches):
    cold_report, _ = cold_serial
    warm, warm_duration = warm_serial
    assert _summary(warm) == _summary(cold_report)
    assert all(r.checker_from_cache for r in warm.results)
    stats = warm.cache_stats["checkers"]
    assert stats["hits"] >= 7
    hit_rate = stats["hits"] / max(1, stats["hits"] + stats["misses"])
    emit(
        f"Warm fleet re-run: {warm_duration:.2f}s, checker cache "
        f"{stats['hits']} hits / {stats['misses']} misses "
        f"({100 * hit_rate:.0f}% hit rate)"
    )


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_executor_parity_and_speedup(
    cold_serial, warm_serial, caches, executor
):
    cold_report, _ = cold_serial
    _, serial_duration = warm_serial
    started = time.perf_counter()
    report = run_fleet(
        size=SIZE_PER_SYSTEM, seed=0, executor=executor, caches=caches
    )
    duration = time.perf_counter() - started
    assert _summary(report) == _summary(cold_report)
    speedup = serial_duration / max(duration, 1e-9)
    emit(
        f"{executor} executor: {duration:.2f}s vs warm serial "
        f"{serial_duration:.2f}s ({speedup:.2f}x), identical fleet "
        "results"
    )
    if executor == "process" and (os.cpu_count() or 1) >= 2:
        # Real parallelism must pay for its forks; on one core a
        # process pool is the same work plus fork overhead, so the
        # speedup claim is only meaningful with cores to spare.
        assert speedup >= 1.0

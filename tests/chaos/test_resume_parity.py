"""The chaos tier's core acceptance claim: with seeded faults
injected, fleet and pipeline runs either recover in place (retry) or
resume from checkpoints after a kill — and the final reports
(verdicts, Vulnerability sets, PrecisionRecall, diagnostics) are
bit-identical to a fault-free run."""

import pytest

from repro.chaos import ChaosError, ChaosSchedule
from repro.checker import run_fleet
from repro.obs import get_registry
from repro.pipeline import CampaignPipeline, PipelineCaches
from repro.resilience import CheckpointStore, RetryPolicy

FLEET_SYSTEMS = ["mysql", "vsftpd"]
SIZE = 48
CHUNK = 16  # 3 chunks per system -> 6 shards
SEED = 5

PIPE_SYSTEMS = ["storage_a", "vsftpd"]

POLICY = RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.01)


def _counter_delta(before: dict, name: str) -> int:
    counters = get_registry().snapshot()["counters"]
    return counters.get(name, 0) - before.get(name, 0)


def _counters() -> dict:
    return dict(get_registry().snapshot()["counters"])


def _find_seed(predicate) -> ChaosSchedule:
    """The first schedule seed satisfying `predicate` — deterministic,
    so the test exercises a known fault pattern instead of dice."""
    for seed in range(512):
        schedule = ChaosSchedule(seed=seed, error_rate=0.3)
        if predicate(schedule):
            return schedule
    pytest.fail("no chaos seed found")  # pragma: no cover


# -- fleet ---------------------------------------------------------------------


def _fleet_view(report) -> dict:
    """Everything a fleet report *claims*, minus wall-clock noise."""
    view = report.summary_dict()
    for key in ("wall_time", "throughput", "cache_stats"):
        view.pop(key)
    for row in view["systems"]:
        row.pop("duration")
        row.pop("checker_from_cache")
    return view


@pytest.fixture(scope="module")
def caches():
    return PipelineCaches()


@pytest.fixture(scope="module")
def fleet_baseline(caches):
    return run_fleet(
        systems=FLEET_SYSTEMS,
        size=SIZE,
        seed=SEED,
        chunk_size=CHUNK,
        caches=caches,
    )


class TestFleetRecovery:
    def test_retry_recovery_is_bit_identical(self, caches, fleet_baseline):
        # A schedule that faults at least one shard's first attempt
        # but can never exhaust the 4-attempt budget.
        def recoverable(schedule):
            fired = [
                schedule.should("error", f"fleet:{i}|a1") for i in range(6)
            ]
            exhaustible = any(
                all(
                    schedule.should("error", f"fleet:{i}|a{a}")
                    for a in range(1, POLICY.max_attempts + 1)
                )
                for i in range(6)
            )
            return any(fired) and not exhaustible

        schedule = _find_seed(recoverable)
        before = _counters()
        report = run_fleet(
            systems=FLEET_SYSTEMS,
            size=SIZE,
            seed=SEED,
            chunk_size=CHUNK,
            caches=caches,
            retry_policy=POLICY,
            chaos=schedule,
        )
        assert report.failed_shards == []
        assert _counter_delta(before, "resilience.retries") >= 1
        assert _fleet_view(report) == _fleet_view(fleet_baseline)

    def test_kill_and_resume_is_bit_identical(
        self, caches, fleet_baseline, tmp_path
    ):
        # No retry budget: the first fired fault kills the run the way
        # a SIGKILL would, after some chunks already checkpointed.
        def aborts_midway(schedule):
            fired = [
                schedule.should("error", f"fleet:{i}|a1") for i in range(6)
            ]
            return not fired[0] and any(fired[1:])

        schedule = _find_seed(aborts_midway)
        store = CheckpointStore(tmp_path / "fleet")
        before = _counters()
        with pytest.raises(ChaosError):
            run_fleet(
                systems=FLEET_SYSTEMS,
                size=SIZE,
                seed=SEED,
                chunk_size=CHUNK,
                caches=caches,
                chaos=schedule,
                checkpoint=store,
            )
        saves = _counter_delta(before, "resilience.checkpoint_saves")
        assert saves >= 1  # progress survived the kill

        # Resume fault-free: restored chunks fold with fresh ones.
        before = _counters()
        resumed = run_fleet(
            systems=FLEET_SYSTEMS,
            size=SIZE,
            seed=SEED,
            chunk_size=CHUNK,
            caches=caches,
            checkpoint=store,
        )
        assert _counter_delta(before, "resilience.checkpoint_hits") == saves
        assert _fleet_view(resumed) == _fleet_view(fleet_baseline)

    @pytest.mark.parametrize(
        "first, then", [("process", "serial"), ("serial", "process")]
    )
    def test_resume_across_executors_is_bit_identical(
        self, caches, fleet_baseline, tmp_path, first, then
    ):
        store = CheckpointStore(tmp_path / "fleet-cross")
        spec = dict(
            systems=FLEET_SYSTEMS,
            size=SIZE,
            seed=SEED,
            chunk_size=CHUNK,
            caches=caches,
            checkpoint=store,
        )
        run_fleet(executor=first, **spec)
        before = _counters()
        resumed = run_fleet(executor=then, **spec)
        # Every chunk comes back from the other executor's checkpoints.
        assert _counter_delta(before, "resilience.checkpoint_hits") == 6
        assert _counter_delta(before, "resilience.checkpoint_saves") == 0
        assert resumed.executor == then
        assert {**_fleet_view(resumed), "executor": "serial"} == _fleet_view(
            fleet_baseline
        )

    def test_different_spec_never_reads_stale_checkpoints(
        self, caches, tmp_path
    ):
        store = CheckpointStore(tmp_path / "fleet-spec")
        run_fleet(
            systems=FLEET_SYSTEMS,
            size=SIZE,
            seed=SEED,
            chunk_size=CHUNK,
            caches=caches,
            checkpoint=store,
        )
        before = _counters()
        other = run_fleet(
            systems=FLEET_SYSTEMS,
            size=SIZE,
            seed=SEED + 1,  # different corpus -> different run key
            chunk_size=CHUNK,
            caches=caches,
            checkpoint=store,
        )
        assert _counter_delta(before, "resilience.checkpoint_hits") == 0
        assert other.seed == SEED + 1

    def test_exhausted_shards_quarantine_instead_of_aborting(self, caches):
        report = run_fleet(
            systems=FLEET_SYSTEMS,
            size=SIZE,
            seed=SEED,
            chunk_size=CHUNK,
            caches=caches,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.001),
            chaos=ChaosSchedule(seed=0, error_rate=1.0),
        )
        # Every chunk died twice: the run still returns, structurally.
        assert len(report.failed_shards) == 6
        labels = {f.label for f in report.failed_shards}
        assert labels == {
            f"{name}:{start}:{CHUNK}"
            for name in FLEET_SYSTEMS
            for start in range(0, SIZE, CHUNK)
        }
        for failure in report.failed_shards:
            assert failure.error_kind == "ChaosError"
        assert report.total_configs == 0


# -- pipeline ------------------------------------------------------------------


def _pipeline_view(report) -> dict:
    view = report.summary_dict()
    view.pop("wall_time")
    view.pop("cache_stats")
    for row in view["systems"]:
        row.pop("duration")
        row.pop("from_checkpoint")
    return view


def _make_pipeline(caches, **kwargs) -> CampaignPipeline:
    return CampaignPipeline(systems=PIPE_SYSTEMS, caches=caches, **kwargs)


@pytest.fixture(scope="module")
def pipeline_baseline(caches):
    return _make_pipeline(caches).run()


class TestPipelineRecovery:
    def test_kill_and_resume_restores_checkpointed_campaigns(
        self, caches, pipeline_baseline, tmp_path
    ):
        # Fault the second campaign's only attempt: campaign 0
        # completes and checkpoints, then the sweep dies.
        def second_campaign_dies(schedule):
            return not schedule.should(
                "error", "pipeline:0|a1"
            ) and schedule.should("error", "pipeline:1|a1")

        schedule = _find_seed(second_campaign_dies)
        store = CheckpointStore(tmp_path / "pipe")
        with pytest.raises(ChaosError):
            _make_pipeline(caches, chaos=schedule, checkpoint=store).run()

        before = _counters()
        resumed = _make_pipeline(caches, checkpoint=store).run()
        assert _counter_delta(before, "resilience.checkpoint_hits") == 1
        by_name = {run.name: run for run in resumed.runs}
        assert by_name[PIPE_SYSTEMS[0]].from_checkpoint
        assert not by_name[PIPE_SYSTEMS[1]].from_checkpoint

        # Bit-identical to the fault-free sweep: summaries and the
        # parity currency itself, the per-system Vulnerability sets.
        assert _pipeline_view(resumed) == _pipeline_view(pipeline_baseline)
        assert (
            resumed.vulnerability_sets()
            == pipeline_baseline.vulnerability_sets()
        )

    @pytest.mark.parametrize(
        "first, then", [("process", "serial"), ("serial", "process")]
    )
    def test_resume_across_executors_is_bit_identical(
        self, caches, pipeline_baseline, tmp_path, first, then
    ):
        store = CheckpointStore(tmp_path / "pipe-cross")
        _make_pipeline(caches, checkpoint=store, executor=first).run()
        before = _counters()
        resumed = _make_pipeline(
            caches, checkpoint=store, executor=then
        ).run()
        assert _counter_delta(before, "resilience.checkpoint_hits") == len(
            PIPE_SYSTEMS
        )
        assert _counter_delta(before, "resilience.checkpoint_saves") == 0
        assert all(run.from_checkpoint for run in resumed.runs)
        assert resumed.executor == then
        assert {
            **_pipeline_view(resumed), "executor": "serial"
        } == _pipeline_view(pipeline_baseline)
        assert (
            resumed.vulnerability_sets()
            == pipeline_baseline.vulnerability_sets()
        )

    def test_retry_recovery_is_bit_identical(self, caches, pipeline_baseline):
        policy = RetryPolicy(max_attempts=3, base_delay=0.001)

        def recoverable(schedule):
            fired = [
                schedule.should("error", f"pipeline:{i}|a1")
                for i in range(2)
            ]
            exhaustible = any(
                all(
                    schedule.should("error", f"pipeline:{i}|a{a}")
                    for a in range(1, policy.max_attempts + 1)
                )
                for i in range(2)
            )
            return any(fired) and not exhaustible

        schedule = _find_seed(recoverable)
        before = _counters()
        report = _make_pipeline(
            caches, retry_policy=policy, chaos=schedule
        ).run()
        assert report.failed_shards == []
        assert _counter_delta(before, "resilience.retries") >= 1
        assert _pipeline_view(report) == _pipeline_view(pipeline_baseline)
        assert (
            report.vulnerability_sets()
            == pipeline_baseline.vulnerability_sets()
        )

    def test_exhausted_campaigns_quarantine_with_system_labels(self, caches):
        report = _make_pipeline(
            caches,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.001),
            chaos=ChaosSchedule(seed=0, error_rate=1.0),
        ).run()
        assert report.runs == []
        assert sorted(f.label for f in report.failed_shards) == sorted(
            PIPE_SYSTEMS
        )
        for failure in report.failed_shards:
            assert failure.attempts == 2
            assert failure.error_kind == "ChaosError"

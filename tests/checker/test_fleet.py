"""Tests for fleet-scale sharded validation."""

import pytest

import repro.checker.fleet as fleet
from repro.checker import run_fleet
from repro.checker.corpus import DEFAULT_MISTAKE_RATE
from repro.pipeline import PipelineCaches, SerialExecutor
from repro.systems.registry import get_system

SYSTEMS = ["mysql", "vsftpd"]


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
def serial_report(caches):
    return run_fleet(
        systems=SYSTEMS,
        size=60,
        seed=5,
        executor="serial",
        caches=caches,
        agreement_sample=6,
    )


class TestFleetRun:
    def test_shape_and_scores(self, serial_report):
        assert [r.name for r in serial_report.results] == SYSTEMS
        assert serial_report.total_configs == 120
        for result in serial_report.results:
            assert result.corpus_size == 60
            assert 0 < result.planted < 60
            # Clean configs equal the calibrated template: flagging one
            # would be a checker false positive.
            assert result.scores.false_positives == 0
            assert result.scores.precision == 1.0
            assert result.scores.recall is not None
            assert result.scores.recall > 0.5
        assert serial_report.throughput() > 0

    def test_deterministic_for_fixed_seed(self, serial_report, caches):
        again = run_fleet(
            systems=SYSTEMS, size=60, seed=5, executor="serial",
            caches=caches,
        )
        assert _summary(again) == _summary(serial_report)

    def test_different_seed_changes_fleet(self, serial_report, caches):
        other = run_fleet(
            systems=SYSTEMS, size=60, seed=6, executor="serial",
            caches=caches,
        )
        assert _summary(other) != _summary(serial_report)

    def test_checker_cache_warm_on_second_run(self, serial_report, caches):
        before = caches.checkers.stats.hits
        warm = run_fleet(
            systems=SYSTEMS, size=10, seed=5, executor="serial",
            caches=caches,
        )
        assert caches.checkers.stats.hits >= before + len(SYSTEMS)
        assert all(r.checker_from_cache for r in warm.results)

    def test_agreement_sample_grounded(self, serial_report):
        agreement = serial_report.agreement
        assert agreement is not None
        assert agreement.sampled == 6
        assert agreement.confirmed + agreement.refuted == agreement.sampled
        # The tentpole's ground-truth claim, in miniature: flagged
        # configs overwhelmingly misbehave under the interpreter.
        assert agreement.confirmed >= agreement.refuted
        assert len(agreement.details) == agreement.sampled

    def test_summary_dict_json_able(self, serial_report):
        import json

        decoded = json.loads(json.dumps(serial_report.summary_dict()))
        assert decoded["total_configs"] == 120
        assert decoded["systems"][0]["name"] == "mysql"
        assert decoded["agreement"]["sampled"] == 6

    def test_unknown_system_fails_before_work(self, caches):
        with pytest.raises(KeyError):
            run_fleet(systems=["nope"], size=5, caches=caches)


class TestExecutorParity:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_parity_with_serial(self, serial_report, caches, executor):
        report = run_fleet(
            systems=SYSTEMS,
            size=60,
            seed=5,
            executor=executor,
            caches=caches,
            chunk_size=16,
        )
        assert report.executor == executor
        assert _summary(report) == _summary(serial_report)

    def test_chunk_size_never_changes_results(self, serial_report, caches):
        report = run_fleet(
            systems=SYSTEMS, size=60, seed=5, executor="serial",
            caches=caches, chunk_size=7,
        )
        assert _summary(report) == _summary(serial_report)


class TestShardRebuild:
    """The fleet's shard function with the run's contexts absent - what
    a pool worker that inherited none (a spawn start method) does."""

    NAME = "vsftpd"

    def _tasks(self, digest: str) -> list[tuple]:
        return [
            (self.NAME, 5, DEFAULT_MISTAKE_RATE, start, min(16, 60 - start),
             digest)
            for start in range(0, 60, 16)
        ]

    def _run(self, tasks, caches) -> list:
        return SerialExecutor().map_resilient(
            fleet._validate_chunk, tasks, caches=caches
        ).results

    def test_rebuild_by_name_matches_the_planted_run(
        self, serial_report, caches, monkeypatch
    ):
        planted = fleet._build_context(get_system(self.NAME), caches)
        tasks = self._tasks(planted.digest)
        monkeypatch.setattr(fleet, "_FLEET_CONTEXTS", {self.NAME: planted})
        from_planted = self._run(tasks, caches)

        monkeypatch.setattr(fleet, "_FLEET_CONTEXTS", {})
        cold = PipelineCaches()  # a fresh worker's stores
        rebuilt = self._run(tasks, cold)
        # The shard rebuilt its context on its own stores, once.
        assert cold.checkers.stats.misses == 1
        assert fleet._FLEET_CONTEXTS[self.NAME].checker is not planted.checker
        assert [c.outcomes for c in rebuilt] == [
            c.outcomes for c in from_planted
        ]
        fold = fleet._SystemFold()
        for chunk in rebuilt:
            fold.absorb(chunk)
        (expected,) = [
            result.summary_dict()
            for result in serial_report.results
            if result.name == self.NAME
        ]
        got = fold.result(self.NAME, False).summary_dict()
        for row in (expected, got):
            row.pop("duration")
            row.pop("checker_from_cache")
        assert got == expected

    def test_divergent_mistake_pool_raises(self, caches, monkeypatch):
        monkeypatch.setattr(fleet, "_FLEET_CONTEXTS", {})
        with pytest.raises(RuntimeError, match="divergent mistake pool"):
            self._run(self._tasks("0" * 64)[:1], caches)

"""Executor behaviour and cross-executor campaign parity."""

import pytest

from repro.inject.campaign import Campaign
from repro.pipeline import (
    CampaignPipeline,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    executor_names,
    resolve_executor,
)
from repro.systems import get_system
from repro.systems.registry import (
    is_registered,
    iter_systems,
    load_all,
)

SUBSET = ["apache", "openldap"]


class TestResolveExecutor:
    def test_by_name(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("thread"), ThreadExecutor)
        assert isinstance(resolve_executor("process"), ProcessExecutor)

    def test_instance_passthrough(self):
        executor = ThreadExecutor(max_workers=3)
        assert resolve_executor(executor) is executor

    def test_worker_override(self):
        assert resolve_executor("thread", 5).max_workers == 5

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("gpu")

    def test_names_listing(self):
        assert set(executor_names()) == {"serial", "thread", "process"}


class TestMapSemantics:
    @pytest.mark.parametrize("name", ["serial", "thread", "process"])
    def test_order_preserved(self, name):
        executor = resolve_executor(name, 4)
        assert executor.map(abs, [-3, -1, -2, -5]) == [3, 1, 2, 5]

    def test_empty(self):
        assert resolve_executor("thread").map(abs, []) == []


class TestRegistryBulkApi:
    def test_iter_subset_preserves_order(self):
        names = [s.name for s in iter_systems(["openldap", "apache"])]
        assert names == ["openldap", "apache"]

    def test_iter_unknown_raises_before_work(self):
        with pytest.raises(KeyError, match="no_such_system"):
            list(iter_systems(["no_such_system"]))

    def test_load_all(self):
        systems = load_all()
        assert set(systems) == {
            "apache", "mysql", "nginx", "openldap", "postgresql",
            "squid", "storage_a", "vsftpd",
        }
        assert all(name == s.name for name, s in systems.items())

    def test_is_registered(self):
        assert is_registered("squid")
        assert is_registered("nginx")
        assert not is_registered("lighttpd")


class TestPipelineParity:
    @pytest.fixture(scope="class")
    def serial_report(self):
        return CampaignPipeline(systems=SUBSET).run()

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_identical_vulnerability_sets(self, serial_report, executor):
        report = CampaignPipeline(
            systems=SUBSET, executor=executor, max_workers=2
        ).run()
        assert report.executor == executor
        assert (
            report.vulnerability_sets() == serial_report.vulnerability_sets()
        )
        assert (
            report.total_misconfigurations()
            == serial_report.total_misconfigurations()
        )

    def test_single_system_campaign_is_thin_wrapper(self, serial_report):
        """A direct Campaign run and a one-system pipeline run agree."""
        direct = Campaign(get_system("apache")).run()
        (via_pipeline,) = [
            run.report for run in serial_report.runs if run.name == "apache"
        ]
        assert set(direct.vulnerabilities) == set(
            via_pipeline.vulnerabilities
        )
        assert (
            direct.misconfigurations_tested
            == via_pipeline.misconfigurations_tested
        )


class TestPipelineCaching:
    def test_warm_rerun_reexecutes_every_campaign(self):
        """A re-run on the same pipeline executes every campaign again,
        with its inference served from the cache and every launch's
        boot record found in the launch store."""
        pipeline = CampaignPipeline(systems=SUBSET)
        cold = pipeline.run()
        inference = pipeline.caches.inference.stats.snapshot()
        launches = cold.cache_stats["launches"]
        warm = pipeline.run()
        assert [run.name for run in warm.runs] == SUBSET
        for before, after in zip(cold.runs, warm.runs):
            assert after.report is not before.report
            assert after.duration > 0
        assert pipeline.caches.inference.stats.misses == inference["misses"]
        assert pipeline.caches.inference.stats.hits > inference["hits"]
        assert warm.cache_stats["launches"]["misses"] == launches["misses"]
        assert warm.cache_stats["launches"]["hits"] > launches["hits"]
        assert warm.vulnerability_sets() == cold.vulnerability_sets()

    def test_report_aggregates(self):
        report = CampaignPipeline(systems=SUBSET).run()
        assert report.total_vulnerabilities() == sum(
            r.report.total() for r in report.runs
        )
        assert sum(report.counts_by_category().values()) == (
            report.total_vulnerabilities()
        )
        summary = report.summary_dict()
        assert [s["name"] for s in summary["systems"]] == SUBSET
        assert "mysql" not in [run.name for run in report.runs]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))

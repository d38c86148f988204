"""Executor behaviour and cross-executor campaign parity."""

import pytest

from repro.inject.campaign import Campaign
from repro.inject.generators import GeneratorPlugin, default_generators
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
    clear_instance_cache,
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

    def test_clear_instance_cache(self):
        before = get_system("apache")
        clear_instance_cache()
        after = get_system("apache")
        assert after is not before
        assert after.name == before.name

    def test_clear_invalidates_memos_on_held_instances(self):
        # Regression: clear_instance_cache() used to drop only the
        # registry's name->instance map, leaving the program() memo
        # alive on instances callers already held - a later sources
        # mutation (the reason one clears) kept serving the stale
        # parse.  The contract now is that the clear also invalidates
        # derived memos on every instance handed out so far.
        held = load_all()["vsftpd"]
        stale = held.program()
        assert held.program() is stale  # memoized while cached
        clear_instance_cache()
        fresh = held.program()
        assert fresh is not stale  # re-parsed, not served from memo
        # The held object stays fully usable: the re-parse reflects
        # its (unchanged) sources, so derived facts agree.
        assert fresh.count_code_lines() == stale.count_code_lines()
        assert load_all()["vsftpd"] is not held


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
        via_pipeline = serial_report.report_for("apache")
        assert set(direct.vulnerabilities) == set(
            via_pipeline.vulnerabilities
        )
        assert (
            direct.misconfigurations_tested
            == via_pipeline.misconfigurations_tested
        )


class TestPipelineCaching:
    def test_warm_rerun_served_from_cache(self):
        pipeline = CampaignPipeline(systems=["apache"])
        cold = pipeline.run()
        warm = pipeline.run()
        assert cold.cached_count() == 0
        assert warm.cached_count() == 1
        assert warm.runs[0].report is cold.runs[0].report

    def test_reuse_disabled_still_caches_inference(self):
        pipeline = CampaignPipeline(systems=["apache"], reuse_campaigns=False)
        first = pipeline.run()
        second = pipeline.run()
        assert second.cached_count() == 0
        assert second.runs[0].report is not first.runs[0].report
        assert pipeline.caches.inference.stats.hits >= 1
        assert second.vulnerability_sets() == first.vulnerability_sets()

    def test_executor_override_per_run(self):
        pipeline = CampaignPipeline(systems=["apache"])
        report = pipeline.run(executor="thread")
        assert report.executor == "thread"

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
        with pytest.raises(KeyError):
            report.report_for("mysql")


class TestProcessExecutorGuards:
    def test_custom_generators_rejected(self):
        class NullPlugin(GeneratorPlugin):
            rule_name = "null"

            def applies_to(self, constraint):
                return False

            def generate(self, constraint, template):
                return []

        generators = default_generators()
        generators.add(NullPlugin())
        pipeline = CampaignPipeline(
            systems=["apache"], generators=generators, executor="process"
        )
        with pytest.raises(ValueError, match="process executor"):
            pipeline.run()
        # The same roster is fine on an in-process executor.
        report = pipeline.run(executor="serial")
        assert report.total_vulnerabilities() > 0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))

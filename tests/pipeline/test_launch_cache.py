"""Launch-cache semantics: key sensitivity, hit/miss accounting,
snapshot slimming, and campaign parity with and without the cache."""

import pytest

from repro.inject.campaign import Campaign
from repro.inject.harness import InjectionHarness
from repro.pipeline import CampaignPipeline, LaunchCache, launch_fingerprint
from repro.runtime.interpreter import InterpreterOptions
from repro.systems import get_system


class TestLaunchFingerprint:
    def test_stable(self):
        assert launch_fingerprint(
            "sys", "a = 1\n", ("GET",), "opts"
        ) == launch_fingerprint("sys", "a = 1\n", ("GET",), "opts")

    def test_config_text_changes_key(self):
        assert launch_fingerprint("sys", "a = 1\n") != launch_fingerprint(
            "sys", "a = 2\n"
        )

    def test_requests_change_key(self):
        base = launch_fingerprint("sys", "c", ("GET",))
        assert base != launch_fingerprint("sys", "c", ())
        assert base != launch_fingerprint("sys", "c", ("GET", "GET"))
        assert base != launch_fingerprint("sys", "c", ("PUT",))

    def test_request_split_does_not_collide(self):
        # ("ab", "c") and ("a", "bc") must hash differently.
        assert launch_fingerprint("sys", "c", ("ab", "c")) != launch_fingerprint(
            "sys", "c", ("a", "bc")
        )

    def test_system_and_options_change_key(self):
        assert launch_fingerprint("a", "c") != launch_fingerprint("b", "c")
        assert launch_fingerprint(
            "a", "c", (), InterpreterOptions().fingerprint()
        ) != launch_fingerprint(
            "a", "c", (), InterpreterOptions(max_steps=7).fingerprint()
        )

    def test_interpreter_options_fingerprint_is_hex(self):
        fingerprint = InterpreterOptions().fingerprint()
        assert len(fingerprint) == 64
        int(fingerprint, 16)  # raises if not hex


class TestHarnessLaunchCaching:
    @pytest.fixture()
    def harness(self):
        return InjectionHarness(get_system("openldap"), launch_cache=LaunchCache())

    def test_identical_launches_share_one_run(self, harness):
        config = harness.system.default_config
        first = harness.launch(config)
        second = harness.launch(config)
        assert second is first
        assert harness.launch_cache.stats.misses == 1
        assert harness.launch_cache.stats.hits == 1

    def test_different_requests_are_distinct_entries(self, harness):
        config = harness.system.default_config
        startup = harness.launch(config)
        ping = harness.launch(config, ["PING"])
        assert ping is not startup
        assert harness.launch_cache.stats.misses == 2

    def test_cache_keeps_effective_values(self, harness):
        config = harness.system.default_config
        startup = harness.launch(config)
        request_run = harness.launch(config, ["PING"])
        # Silent-violation checks read a startup run's effective config
        # values, resolved before caching; no cached result holds an
        # interpreter, which bounds the cache's footprint.
        assert startup.interpreter is None
        assert request_run.interpreter is None
        assert set(startup.effective_values) == set(
            harness.system.effective_locations
        )
        assert request_run.effective_values is None
        # A cache hit hands back the same resolved values.
        assert harness.launch(config).effective_values == (
            startup.effective_values
        )

    def test_uncached_harness_reruns_every_launch(self):
        harness = InjectionHarness(get_system("openldap"))
        config = harness.system.default_config
        assert harness.launch(config) is not harness.launch(config)

    def test_repeated_baseline_served_from_cache(self, harness):
        assert harness.baseline_ok()
        misses = harness.launch_cache.stats.misses
        assert harness.baseline_ok()
        assert harness.launch_cache.stats.misses == misses
        assert harness.launch_cache.stats.hits >= misses


class TestCampaignLaunchCacheParity:
    @pytest.fixture(scope="class")
    def system(self):
        return get_system("openldap")

    @pytest.fixture(scope="class")
    def spex_report(self, system):
        return Campaign(system).run_spex()

    @pytest.fixture(scope="class")
    def reference(self, system, spex_report):
        # The no-cache loop: the semantics every cached variant must
        # reproduce bit-identically.
        return Campaign(system).run(spex_report)

    def _assert_equal_reports(self, report, reference):
        assert set(report.vulnerabilities) == set(reference.vulnerabilities)
        assert report.vulnerabilities == reference.vulnerabilities
        assert [v.reaction for v in report.verdicts] == [
            v.reaction for v in reference.verdicts
        ]
        assert (
            report.misconfigurations_tested
            == reference.misconfigurations_tested
        )

    def test_cached_campaign_matches_uncached_serial(
        self, system, spex_report, reference
    ):
        cache = LaunchCache()
        report = Campaign(system, launch_cache=cache).run(spex_report)
        self._assert_equal_reports(report, reference)
        assert cache.stats.misses > 0

    def test_warm_rerun_is_all_hits(self, system, spex_report, reference):
        cache = LaunchCache()
        Campaign(system, launch_cache=cache).run(spex_report)
        cold = cache.stats.snapshot()
        rerun = Campaign(system, launch_cache=cache).run(spex_report)
        self._assert_equal_reports(rerun, reference)
        assert cache.stats.misses == cold["misses"]  # nothing re-launched
        assert cache.stats.hits >= cold["misses"]

    def test_pipeline_surfaces_launch_stats(self):
        pipeline = CampaignPipeline(
            systems=["openldap"], reuse_campaigns=False
        )
        pipeline.run()
        warm = pipeline.run()
        launches = warm.cache_stats["launches"]
        assert launches["hits"] > 0
        assert warm.summary_dict()["cache_stats"]["launches"] == launches


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))

"""The launch layer of the pipeline caches: one store, the
`SnapshotCache` boot record per config.  Key sensitivity, record
lookup accounting (a harness given no store accounts in its own),
slimmed startup results, and campaign parity between a shared store
and a campaign's own."""

import dataclasses

import pytest

from repro.inject.campaign import Campaign
from repro.inject.harness import InjectionHarness
from repro.obs import get_registry
from repro.pipeline import CampaignPipeline
from repro.runtime.interpreter import InterpreterOptions
from repro.runtime.snapshot import SnapshotCache, snapshot_fingerprint
from repro.systems import get_system


class TestLaunchFingerprint:
    """The launch store's key (`snapshot_fingerprint`) and its options
    component."""

    def test_stable(self):
        assert snapshot_fingerprint(
            "sys", "a = 1\n", "opts", ("sys", "/etc/a")
        ) == snapshot_fingerprint("sys", "a = 1\n", "opts", ("sys", "/etc/a"))

    def test_config_text_changes_key(self):
        assert snapshot_fingerprint(
            "sys", "a = 1\n", "opts"
        ) != snapshot_fingerprint("sys", "a = 2\n", "opts")

    def test_argv_split_does_not_collide(self):
        # ("ab", "c") and ("a", "bc") must hash differently.
        assert snapshot_fingerprint(
            "sys", "c", "opts", ("ab", "c")
        ) != snapshot_fingerprint("sys", "c", "opts", ("a", "bc"))

    def test_system_and_options_change_key(self):
        assert snapshot_fingerprint("a", "c", "") != snapshot_fingerprint(
            "b", "c", ""
        )
        assert snapshot_fingerprint(
            "a", "c", InterpreterOptions().fingerprint()
        ) != snapshot_fingerprint(
            "a", "c", InterpreterOptions(max_steps=7).fingerprint()
        )

    def test_interpreter_options_fingerprint_is_hex(self):
        fingerprint = InterpreterOptions().fingerprint()
        assert len(fingerprint) == 64
        int(fingerprint, 16)  # raises if not hex

    def test_interpreter_options_are_frozen_and_hashed_once(self):
        # Every harness shares one options instance, and each launch
        # keys its boot record by the fingerprint.
        options = InterpreterOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.max_steps = 1
        assert options.fingerprint() is options.fingerprint()


class TestHarnessLaunchCaching:
    @pytest.fixture()
    def harness(self):
        return InjectionHarness(
            get_system("openldap"), snapshot_cache=SnapshotCache()
        )

    def test_identical_launches_share_one_record(self, harness):
        config = harness.system.default_config
        first = harness.launch(config)
        second = harness.launch(config)
        # One record, two real launches.
        assert second is not first
        assert harness.snapshot_cache.stats.misses == 1
        assert harness.snapshot_cache.stats.hits == 1
        assert len(harness.snapshot_cache) == 1

    def test_different_requests_share_one_record(self, harness):
        """Boot state is request-independent, so the request queue is
        not part of the record's key."""
        config = harness.system.default_config
        harness.launch(config)
        harness.launch(config, ["PING"])
        harness.launch(config, ["PING", "PING"])
        assert harness.snapshot_cache.stats.misses == 1
        assert harness.snapshot_cache.stats.hits == 2
        assert harness.boot_stats.resumes >= 1

    def test_cache_keeps_effective_values(self, harness):
        config = harness.system.default_config
        startup = harness.launch(config)
        request_run = harness.launch(config, ["PING"])
        # Silent-violation checks read a startup run's effective config
        # values, resolved at launch; no result holds an interpreter,
        # which bounds what verdicts keep alive.
        assert startup.interpreter is None
        assert request_run.interpreter is None
        assert set(startup.effective_values) == set(
            harness.system.effective_locations
        )
        assert request_run.effective_values is None
        # A startup launch resumed from the stored record resolves the
        # same values.
        resumes = harness.boot_stats.resumes
        again = harness.launch(config)
        assert harness.boot_stats.resumes == resumes + 1
        assert again.interpreter is None
        assert again.effective_values == startup.effective_values

    def test_uncached_harness_reruns_every_launch(self):
        """A harness given no store launches through one of its own
        and still runs every launch."""
        harness = InjectionHarness(get_system("openldap"))
        store = harness.snapshot_cache
        assert isinstance(store, SnapshotCache)
        config = harness.system.default_config
        first = harness.launch(config)
        second = harness.launch(config)
        assert second is not first
        assert second.logs == first.logs
        assert (store.stats.misses, store.stats.hits) == (1, 1)
        stats = store.boot_stats
        assert stats.boots + stats.resumes == 2

    def test_bare_harness_accounts_every_launch_in_its_store(self):
        """Each launch of a harness built without a store is one
        lookup in the store it creates, and a repeated baseline pass
        resumes every launch from the records the first pass left."""
        harness = InjectionHarness(get_system("openldap"))
        store = harness.snapshot_cache
        registry = get_registry()

        def launches() -> int:
            return registry.snapshot()["counters"].get("launch.requests", 0)

        before = launches()
        assert harness.baseline_ok()
        assert launches() - before == store.stats.hits + store.stats.misses
        misses, boots = store.stats.misses, store.boot_stats.boots
        lookups = store.stats.hits + store.stats.misses
        before = launches()
        assert harness.baseline_ok()
        assert launches() - before == (
            store.stats.hits + store.stats.misses - lookups
        )
        assert store.stats.misses == misses
        assert store.boot_stats.boots == boots

    def test_repeated_baseline_served_from_cache(self, harness):
        store = harness.snapshot_cache
        assert harness.baseline_ok()
        misses = store.stats.misses
        boots = store.boot_stats.boots
        assert harness.baseline_ok()
        # The second pass finds every record and resumes every launch.
        assert store.stats.misses == misses
        assert store.boot_stats.boots == boots
        assert store.stats.hits >= len(harness.system.tests) + 1


class TestCampaignLaunchStoreParity:
    @pytest.fixture(scope="class")
    def system(self):
        return get_system("openldap")

    @pytest.fixture(scope="class")
    def spex_report(self, system):
        return Campaign(system).run_spex()

    @pytest.fixture(scope="class")
    def reference(self, system, spex_report):
        # A campaign on a store of its own: the semantics every
        # shared-store variant must reproduce bit-identically.
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
        store = SnapshotCache()
        report = Campaign(system, snapshot_cache=store).run(spex_report)
        self._assert_equal_reports(report, reference)
        assert store.stats.misses > 0
        assert store.boot_stats.resumes > 0

    def test_warm_rerun_is_all_hits(self, system, spex_report, reference):
        store = SnapshotCache()
        Campaign(system, snapshot_cache=store).run(spex_report)
        cold = store.stats.snapshot()
        rerun = Campaign(system, snapshot_cache=store).run(spex_report)
        self._assert_equal_reports(rerun, reference)
        # Every config already has its record: the rerun's lookups
        # are all hits, one per launch the cold run made.
        assert store.stats.misses == cold["misses"]
        assert store.stats.hits - cold["hits"] == (
            cold["hits"] + cold["misses"]
        )

    def test_pipeline_surfaces_launch_stats(self):
        before = get_registry().snapshot()["counters"].get(
            "launch.requests", 0
        )
        report = CampaignPipeline(systems=["openldap"]).run()
        launched = (
            get_registry().snapshot()["counters"].get("launch.requests", 0)
            - before
        )
        launches = report.cache_stats["launches"]
        assert launches["hits"] > 0
        # One record lookup per harness launch.
        assert launches["hits"] + launches["misses"] == launched
        assert report.summary_dict()["cache_stats"]["launches"] == launches


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))

"""End-to-end telemetry: the pillars actually record, workers fold,
and the kill switch never changes verdicts.

Counters are asserted as *deltas* against the process registry
(snapshot before, `metrics_delta` after), so these tests stay correct
no matter what earlier tests recorded.
"""

import pytest

from repro.checker.fleet import run_fleet
from repro.inject.campaign import Campaign
from repro.obs import get_registry, metrics_delta, set_enabled
from repro.obs.profile import default_profiler
from repro.pipeline import CampaignPipeline
from repro.systems import get_system


def _campaign_delta():
    registry = get_registry()
    before = registry.snapshot()
    report = Campaign(get_system("vsftpd")).run()
    return report, metrics_delta(before, registry.snapshot())


class TestCampaignTelemetry:
    def test_serial_campaign_records_batches_and_launches(self):
        report, delta = _campaign_delta()
        assert delta["counters"]["campaign.runs"] == 1
        assert delta["counters"]["campaign.batches"] > 0
        assert delta["counters"]["launch.requests"] > 0
        # The first launch in a fresh worker is always sampled, so at
        # least one boot/replay phase timing must exist.
        phases = {
            name
            for name in delta["histograms"]
            if name.startswith("launch.")
        }
        assert phases  # boot, replay and/or steps

def _fan_out(case: str, executor: str):
    """Run one process fan-out under `executor`: what it computed and
    the stats of the stores it used."""
    if case.startswith("pipeline"):
        systems = ["vsftpd"] if case == "pipeline-1" else ["vsftpd", "openldap"]
        report = CampaignPipeline(
            systems=systems, executor=executor, max_workers=2
        ).run()
        return report.vulnerability_sets(), report.cache_stats
    report = run_fleet(
        systems=["mysql", "vsftpd"],
        size=48,
        chunk_size=16,
        executor=executor,
        max_workers=2,
    )
    outcomes = [
        (r.name, r.flagged, r.errors, r.warnings, r.by_kind)
        for r in report.results
    ]
    return outcomes, report.cache_stats


class TestProcessFoldParity:
    @pytest.mark.parametrize("case", ["pipeline-1", "pipeline-2", "fleet"])
    def test_process_workers_fold_their_counters_home(
        self, case, monkeypatch
    ):
        """The worker protocol: each process shard's envelope folds its
        metrics and store deltas home exactly once, so a process run
        records what the serial run records.  "pipeline-1" is the lone
        campaign the process executor runs inline in the parent, whose
        metrics must not be absorbed a second time."""
        # Time every launch, so launch-phase histogram counts are exact
        # rather than a per-process 1-in-32 sample.
        monkeypatch.setattr(default_profiler(), "sample_every", 1)
        registry = get_registry()
        before = registry.snapshot()
        serial_result, serial_stats = _fan_out(case, "serial")
        middle = registry.snapshot()
        process_result, process_stats = _fan_out(case, "process")
        serial = metrics_delta(before, middle)
        process = metrics_delta(middle, registry.snapshot())
        assert process_result == serial_result

        def counters(delta):
            # Codegen lowering is memoized per process: a forked worker
            # inherits every program its parent already lowered.
            return {
                name: value
                for name, value in delta["counters"].items()
                if value and not name.startswith("launch.codegen_")
            }

        def histogram_counts(delta):
            return {
                name: hist["count"]
                for name, hist in delta["histograms"].items()
                if hist["count"]
            }

        assert counters(process) == counters(serial)
        if case == "fleet":
            assert histogram_counts(process) == histogram_counts(serial)
            return
        assert histogram_counts(process) == histogram_counts(serial)
        assert process_stats["launches"] == serial_stats["launches"]
        assert process_stats["snapshots"] == serial_stats["snapshots"]


class TestPipelineTelemetry:
    def test_pipeline_run_emits_counters(self):
        registry = get_registry()
        before = registry.snapshot()
        CampaignPipeline(systems=["vsftpd"]).run()
        delta = metrics_delta(before, registry.snapshot())
        assert delta["counters"]["pipeline.runs"] == 1
        assert delta["counters"]["campaign.runs"] == 1


class TestFleetTelemetry:
    def test_fleet_records_chunks_and_latency(self):
        registry = get_registry()
        before = registry.snapshot()
        run_fleet(systems=["vsftpd"], size=20, agreement_sample=2)
        delta = metrics_delta(before, registry.snapshot())
        assert delta["counters"]["fleet.runs"] == 1
        assert delta["counters"]["fleet.chunks"] > 0
        assert delta["histograms"]["fleet.chunk_seconds"]["count"] > 0


class TestKillSwitchParity:
    def test_disabled_telemetry_is_verdict_identical(self):
        enabled_report = Campaign(get_system("vsftpd")).run()
        previous = set_enabled(False)
        try:
            registry = get_registry()
            before = registry.snapshot()
            disabled_report = Campaign(get_system("vsftpd")).run()
            delta = metrics_delta(before, registry.snapshot())
        finally:
            set_enabled(previous)
        # Delta keys exist (counters enumerate), but nothing moved.
        assert not any(delta["counters"].values())
        assert not any(
            hist["count"] for hist in delta["histograms"].values()
        )
        assert frozenset(disabled_report.vulnerabilities) == frozenset(
            enabled_report.vulnerabilities
        )
        assert (
            disabled_report.misconfigurations_tested
            == enabled_report.misconfigurations_tested
        )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))

"""Unit tests for the metrics registry and its delta protocol.

The registry's contract mirrors `CacheStats`: plain-dict snapshots,
element-wise deltas, absorb-to-fold.  These tests pin bucketing
semantics, deep-copy snapshots, the kill switch (gauges exempt), and
the bucket-edge identity check that keeps histogram merges sound.
"""

import pytest

from repro.obs import (
    MetricsRegistry,
    enabled,
    get_registry,
    metrics_delta,
    set_enabled,
)


class TestCounters:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        assert registry.counter_value("a") == 5

    def test_missing_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0


class TestGauges:
    def test_gauge_overwrites(self):
        registry = MetricsRegistry()
        registry.gauge("g", 1.5)
        registry.gauge("g", 2.5)
        assert registry.gauge_value("g") == 2.5

    def test_missing_gauge_reads_default(self):
        assert MetricsRegistry().gauge_value("nope") == 0


class TestHistograms:
    def test_bucketing_is_le_semantics(self):
        """A value equal to an edge lands in that edge's bucket;
        anything above the last edge lands in the overflow slot."""
        registry = MetricsRegistry()
        for value in (0.5, 1.0, 3.0, 7.0):
            registry.observe("h", value, buckets=(1.0, 5.0))
        hist = registry.snapshot()["histograms"]["h"]
        assert hist["buckets"] == [1.0, 5.0]
        assert hist["counts"] == [2, 1, 1]  # <=1, <=5, overflow
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(11.5)

    def test_first_observe_fixes_the_edges(self):
        registry = MetricsRegistry()
        registry.observe("h", 1.0, buckets=(1.0, 5.0))
        # Later observes reuse the recorded edges; the buckets argument
        # of subsequent calls does not re-shape the histogram.
        registry.observe("h", 100.0, buckets=(2.0,))
        hist = registry.snapshot()["histograms"]["h"]
        assert hist["buckets"] == [1.0, 5.0]
        assert hist["counts"] == [1, 0, 1]


class TestSnapshot:
    def test_snapshot_is_a_deep_copy(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.observe("h", 0.5, buckets=(1.0,))
        snap = registry.snapshot()
        snap["counters"]["c"] = 99
        snap["histograms"]["h"]["counts"][0] = 99
        assert registry.counter_value("c") == 1
        assert registry.snapshot()["histograms"]["h"]["counts"] == [1, 0]

    def test_snapshot_shape(self):
        assert set(MetricsRegistry().snapshot()) == {
            "counters",
            "gauges",
            "histograms",
        }


class TestDeltaAndAbsorb:
    def test_roundtrip_folds_exactly(self):
        """The worker protocol: snapshot, work, delta, parent absorb."""
        worker = MetricsRegistry()
        worker.inc("c", 2)
        worker.observe("h", 0.5, buckets=(1.0,))
        before = worker.snapshot()
        worker.inc("c", 3)
        worker.observe("h", 2.0, buckets=(1.0,))
        delta = metrics_delta(before, worker.snapshot())

        parent = MetricsRegistry()
        parent.inc("c", 10)
        parent.absorb(delta)
        assert parent.counter_value("c") == 13
        hist = parent.snapshot()["histograms"]["h"]
        assert hist["counts"] == [0, 1]
        assert hist["count"] == 1

    def test_delta_never_carries_gauges(self):
        """Forked workers inherit parent gauges; shipping them back
        would overwrite fresher parent state with stale copies."""
        registry = MetricsRegistry()
        before = registry.snapshot()
        registry.gauge("g", 42)
        registry.inc("c")
        delta = metrics_delta(before, registry.snapshot())
        assert delta["gauges"] == {}
        assert delta["counters"] == {"c": 1}

    def test_new_histogram_passes_whole(self):
        registry = MetricsRegistry()
        before = registry.snapshot()
        registry.observe("h", 0.5, buckets=(1.0,))
        delta = metrics_delta(before, registry.snapshot())
        assert delta["histograms"]["h"]["count"] == 1

    def test_absorb_refuses_mismatched_edges(self):
        registry = MetricsRegistry()
        registry.observe("h", 0.5, buckets=(1.0,))
        bad = {
            "histograms": {
                "h": {
                    "buckets": [2.0],
                    "counts": [1, 0],
                    "count": 1,
                    "sum": 0.5,
                }
            }
        }
        with pytest.raises(ValueError, match="bucket edges"):
            registry.absorb(bad)

    def test_delta_refuses_mismatched_edges(self):
        before = {
            "histograms": {
                "h": {"buckets": [1.0], "counts": [0, 0],
                      "count": 0, "sum": 0.0}
            }
        }
        after = {
            "histograms": {
                "h": {"buckets": [2.0], "counts": [1, 0],
                      "count": 1, "sum": 0.5}
            }
        }
        with pytest.raises(ValueError, match="bucket edges"):
            metrics_delta(before, after)


class TestKillSwitch:
    def test_disabled_drops_counters_and_histograms_not_gauges(self):
        registry = MetricsRegistry()
        previous = set_enabled(False)
        try:
            assert not enabled()
            registry.inc("c")
            registry.observe("h", 0.5)
            registry.gauge("g", 3)  # gauges carry reporting state
        finally:
            set_enabled(previous)
        assert registry.counter_value("c") == 0
        assert registry.snapshot()["histograms"] == {}
        assert registry.gauge_value("g") == 3

    def test_set_enabled_returns_previous(self):
        previous = set_enabled(False)
        try:
            assert previous is True
            assert set_enabled(True) is False
        finally:
            set_enabled(True)


class TestProcessRegistry:
    def test_get_registry_is_a_singleton(self):
        assert get_registry() is get_registry()

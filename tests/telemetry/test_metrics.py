"""The name-addressed counter/histogram registry."""

from repro.telemetry import MetricsRegistry


class TestCounters:
    def test_first_count_creates_the_counter(self):
        registry = MetricsRegistry()
        registry.count("cache.hits")
        registry.count("cache.hits", 2)
        assert registry.value("cache.hits") == 3

    def test_untouched_counter_reads_zero(self):
        assert MetricsRegistry().value("never") == 0

    def test_counters_listed_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.count("b")
        registry.count("a")
        assert [counter.name for counter in registry.counters] == ["a", "b"]


class TestHistograms:
    def test_observe_tracks_count_total_min_max(self):
        registry = MetricsRegistry()
        for value in (3.0, 1.0, 2.0):
            registry.observe("latency", value)
        histogram = registry.histogram("latency")
        assert histogram.count == 3
        assert histogram.total == 6.0
        assert histogram.minimum == 1.0
        assert histogram.maximum == 3.0
        assert histogram.mean == 2.0

    def test_empty_histogram_mean_is_zero(self):
        assert MetricsRegistry().histogram("empty").mean == 0.0


class TestSnapshot:
    def test_snapshot_is_json_ready(self):
        import json

        registry = MetricsRegistry()
        registry.count("queries", 4)
        registry.observe("latency", 0.25)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"queries": 4}
        assert snapshot["histograms"]["latency"]["count"] == 1
        assert snapshot["histograms"]["latency"]["mean"] == 0.25
        json.dumps(snapshot)  # must not raise

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.count("queries")
        registry.observe("latency", 1.0)
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "histograms": {}}

"""Unit tests for the telemetry primitives and the stat registry."""

import pytest

from repro.telemetry import Counter, Gauge, RatioStat, StatRegistry


class TestCounter:
    def test_sourced_counter_reads_through(self):
        box = {"value": 0}
        counter = Counter(lambda: box["value"])
        box["value"] = 7
        assert counter.read() == 7

    def test_sourced_counter_is_read_only(self):
        """A counter holds no value of its own: only its source changes it."""
        with pytest.raises(AttributeError):
            Counter(lambda: 0).inc()
        with pytest.raises(TypeError):
            Counter()

    def test_windowed_delta(self):
        box = {"value": 10}
        counter = Counter(lambda: box["value"])
        base = counter.read()
        box["value"] = 25
        assert counter.measured(base) == 15

    def test_unwindowed_counter_ignores_base(self):
        box = {"value": 10}
        counter = Counter(lambda: box["value"], windowed=False)
        base = counter.read()
        box["value"] = 25
        assert counter.measured(base) == 25

    def test_no_base_measures_whole_run(self):
        counter = Counter(lambda: 3)
        assert counter.measured(None) == 3


class TestGauge:
    def test_gauge_reports_point_in_time(self):
        gauge = Gauge(lambda: 0.5)
        assert gauge.measured(0.1) == 0.5

    def test_sourced_gauge_is_read_only(self):
        with pytest.raises(AttributeError):
            Gauge(lambda: 1).set(2)
        with pytest.raises(TypeError):
            Gauge()


class TestRatioStat:
    def test_ratio_over_window(self):
        box = {"hits": 10, "misses": 10}
        hits = Counter(lambda: box["hits"])
        misses = Counter(lambda: box["misses"])
        ratio = RatioStat(hits, [hits, misses])
        base = ratio.read()
        box["hits"], box["misses"] = 40, 20
        # window: 30 hits over 40 accesses
        assert ratio.measured(base) == 30 / 40

    def test_default_on_zero_denominator(self):
        hits = Counter(lambda: 0)
        ratio = RatioStat(hits, [hits], default=1.0)
        assert ratio.measured(None) == 1.0

    def test_one_minus_complement(self):
        box = {"bad": 1, "total": 4}
        bad = Counter(lambda: box["bad"])
        total = Counter(lambda: box["total"])
        ratio = RatioStat(bad, [total], default=1.0, one_minus=True)
        assert ratio.measured(None) == 1.0 - 1 / 4

    def test_requires_denominators(self):
        with pytest.raises(ValueError):
            RatioStat(Counter(lambda: 0), [])


class TestStatRegistry:
    def test_scoped_registration_and_paths(self):
        registry = StatRegistry()
        scope = registry.scope("dram")
        scope.counter("row_hits", lambda: 0)
        scope.scope("accesses").counter("data_read", lambda: 0)
        assert registry.paths() == ["dram.row_hits", "dram.accesses.data_read"]
        assert "dram.row_hits" in registry
        assert len(registry) == 2

    def test_duplicate_path_rejected(self):
        registry = StatRegistry()
        registry.scope("llc").counter("hits", lambda: 0)
        with pytest.raises(ValueError):
            registry.scope("llc").counter("hits", lambda: 0)

    @pytest.mark.parametrize("path", ["", "Upper.case", "sp ace", "a..b", "a."])
    def test_invalid_paths_rejected(self, path):
        registry = StatRegistry()
        with pytest.raises(ValueError):
            registry.register(path, Counter(lambda: 0))

    def test_snapshot_delta_windows_counters(self):
        box = {"value": 5}
        registry = StatRegistry()
        registry.scope("x").counter("count", lambda: box["value"])
        base = registry.snapshot()
        box["value"] = 12
        assert registry.delta(base) == {"x.count": 7}

    def test_delta_without_base_measures_whole_run(self):
        box = {"value": 5}
        registry = StatRegistry()
        registry.scope("x").counter("count", lambda: box["value"])
        assert registry.delta() == {"x.count": 5}

    def test_stat_registered_after_snapshot_measures_from_zero(self):
        registry = StatRegistry()
        base = registry.snapshot()
        box = {"value": 9}
        registry.scope("x").counter("count", lambda: box["value"])
        assert registry.delta(base) == {"x.count": 9}

    def test_mixed_kinds_in_one_delta(self):
        box = {"hits": 2, "misses": 2, "level": 0.0}
        registry = StatRegistry()
        scope = registry.scope("c")
        hits = scope.counter("hits", lambda: box["hits"])
        misses = scope.counter("misses", lambda: box["misses"])
        scope.ratio("hit_rate", hits, [hits, misses])
        scope.gauge("level", lambda: box["level"])
        base = registry.snapshot()
        box.update(hits=10, misses=4, level=0.75)
        delta = registry.delta(base)
        assert delta["c.hits"] == 8
        assert delta["c.misses"] == 2
        assert delta["c.hit_rate"] == 8 / 10
        assert delta["c.level"] == 0.75

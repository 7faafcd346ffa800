"""The metrics registry: counters, gauges, histograms."""

import threading

import pytest

from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("x")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("depth")
        gauge.set(10)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == 11.5


class TestHistogram:
    def test_summary_stats(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 2.0, 100.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 102.5
        assert hist.min == 0.5
        assert hist.max == 100.0
        assert hist.mean == pytest.approx(102.5 / 3)

    def test_bucket_assignment_is_upper_bound_inclusive(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        hist.observe(1.0)   # lands in le=1.0
        hist.observe(10.0)  # lands in le=10.0
        hist.observe(10.5)  # overflows to +Inf
        assert hist.bucket_counts == [1, 1, 1]

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(10.0, 1.0))

    def test_empty_histogram_mean_is_none(self):
        assert Histogram("h").mean is None


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_finding_an_instrument_takes_no_lock(self):
        class CountingLock:
            def __init__(self):
                self.lock, self.acquired = threading.Lock(), 0

            def __enter__(self):
                self.acquired += 1
                return self.lock.__enter__()

            def __exit__(self, *exc):
                return self.lock.__exit__(*exc)

        registry = MetricsRegistry()
        counter = registry.counter("c")
        histogram = registry.histogram("h")
        registry._lock = lock = CountingLock()
        for _ in range(1000):
            assert registry.counter("c") is counter
            assert registry.histogram("h") is histogram
        assert lock.acquired == 0
        registry.gauge("new")
        assert lock.acquired == 1

    def test_racing_creators_get_one_instrument(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(8)
        got = []

        def create():
            barrier.wait()
            got.append(registry.histogram("raced"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(got) == 8
        assert all(instrument is got[0] for instrument in got)
        assert registry.names() == ["raced"]

    def test_counters_view_excludes_other_kinds(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(1.0)
        assert registry.counters() == {"c": 3}

    def test_snapshot_is_json_safe_and_complete(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must not raise
        assert snapshot["c"] == {"type": "counter", "value": 2}
        assert snapshot["g"] == {"type": "gauge", "value": 1.5}
        assert snapshot["h"]["count"] == 1
        assert snapshot["h"]["buckets"][-1]["le"] == "+Inf"

    def test_injectable_clock_is_carried(self):
        fake = lambda: 123.0  # noqa: E731
        registry = MetricsRegistry(clock=fake)
        assert registry.clock() == 123.0

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

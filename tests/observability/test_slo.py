"""Per-tenant SLO monitor: quantiles, windows, budgets, burn rates."""

from __future__ import annotations

import threading

import pytest

from repro.observability import SLOMonitor, parse_prometheus
from repro.observability.slo import quantile


class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def make_monitor(**overrides):
    clock = overrides.pop("clock", FakeClock())
    monitor = SLOMonitor(clock=clock, **overrides)
    return monitor, clock


class TestQuantile:
    def test_nearest_rank_endpoints(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 5.0
        assert quantile(values, 0.5) == 3.0

    def test_single_sample_every_quantile(self):
        assert quantile([7.0], 0.99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestValidation:
    def test_objective_bounds(self):
        with pytest.raises(ValueError):
            SLOMonitor(objective=1.0)
        with pytest.raises(ValueError):
            SLOMonitor(objective=0.0)

    def test_window_ordering(self):
        with pytest.raises(ValueError):
            SLOMonitor(windows=(600.0, 300.0))
        with pytest.raises(ValueError):
            SLOMonitor(windows=(0.0, 300.0))

    def test_max_samples_positive(self):
        with pytest.raises(ValueError):
            SLOMonitor(max_samples=0)


class TestRecording:
    def test_empty_snapshot(self):
        monitor, _ = make_monitor()
        assert monitor.snapshot() == []

    def test_lifetime_counts_and_statuses(self):
        monitor, _ = make_monitor()
        monitor.record("acme", "scan", latency_s=0.01, status="ok")
        monitor.record("acme", "scan", latency_s=0.02, status="degraded")
        monitor.record("acme", "scan", latency_s=0.0, status="shed")
        (record,) = monitor.snapshot()
        assert record["tenant"] == "acme"
        assert record["algorithm"] == "scan"
        assert record["lifetime"] == {"requests": 3, "failures": 1}
        assert record["statuses"] == {"ok": 1, "degraded": 1, "shed": 1}

    def test_series_are_keyed_by_tenant_and_algorithm(self):
        monitor, _ = make_monitor()
        monitor.record("acme", "scan", latency_s=0.01, status="ok")
        monitor.record("acme", "greedy_sc", latency_s=0.01, status="ok")
        monitor.record("beta", "scan", latency_s=0.01, status="ok")
        keys = [(r["tenant"], r["algorithm"]) for r in monitor.snapshot()]
        # deterministic order: sorted by (tenant, algorithm)
        assert keys == [
            ("acme", "greedy_sc"), ("acme", "scan"), ("beta", "scan"),
        ]

    def test_failures_exclude_latency_quantiles(self):
        # a shed request has no meaningful service latency; quantiles
        # are over *served* responses only
        monitor, _ = make_monitor()
        monitor.record("t", "scan", latency_s=0.010, status="ok")
        monitor.record("t", "scan", latency_s=9.999, status="shed")
        (record,) = monitor.snapshot()
        assert record["latency"]["count"] == 1
        assert record["latency"]["p99"] == 0.010

    def test_no_served_samples_gives_null_quantiles(self):
        monitor, _ = make_monitor()
        monitor.record("t", "scan", latency_s=0.0, status="shed")
        (record,) = monitor.snapshot()
        assert record["latency"] == {
            "count": 0, "p50": None, "p95": None, "p99": None,
        }

    def test_cache_hits_counted(self):
        monitor, _ = make_monitor()
        monitor.record("t", "scan", latency_s=0.001, status="ok",
                       cached=True)
        monitor.record("t", "scan", latency_s=0.010, status="ok")
        (record,) = monitor.snapshot()
        assert record["cache_hits"] == 1

    def test_max_samples_bounds_memory_not_lifetime(self):
        monitor, _ = make_monitor(max_samples=4)
        for i in range(10):
            monitor.record("t", "scan", latency_s=float(i), status="ok")
        (record,) = monitor.snapshot()
        assert record["lifetime"]["requests"] == 10
        assert record["latency"]["count"] == 4
        # only the newest 4 latencies remain
        assert record["latency"]["p50"] in (7.0, 8.0)


class TestWindows:
    def test_old_samples_age_out_of_windows(self):
        monitor, clock = make_monitor(windows=(10.0, 100.0))
        monitor.record("t", "scan", latency_s=0.5, status="error")
        clock.advance(50.0)
        monitor.record("t", "scan", latency_s=0.01, status="ok")
        (record,) = monitor.snapshot()
        # the error left the fast window but is still in the slow one
        assert record["burn"]["fast"]["errors"] == 0
        assert record["burn"]["slow"]["errors"] == 1
        clock.advance(101.0)
        (record,) = monitor.snapshot()
        assert record["burn"]["slow"]["requests"] == 0

    def test_quantiles_use_slow_window(self):
        monitor, clock = make_monitor(windows=(10.0, 100.0))
        monitor.record("t", "scan", latency_s=5.0, status="ok")
        clock.advance(200.0)
        monitor.record("t", "scan", latency_s=0.01, status="ok")
        (record,) = monitor.snapshot()
        assert record["latency"]["count"] == 1
        assert record["latency"]["p99"] == 0.01


class TestBurnRates:
    def test_zero_errors_zero_burn(self):
        monitor, _ = make_monitor(objective=0.99)
        monitor.record("t", "scan", latency_s=0.01, status="ok")
        (record,) = monitor.snapshot()
        assert record["burn"]["fast"]["burn_rate"] == 0.0
        assert record["error_budget_remaining"] == 1.0

    def test_burn_one_spends_exactly_the_allowance(self):
        # objective 0.9 allows 10% errors: 1 error in 10 => burn 1.0
        monitor, _ = make_monitor(objective=0.9)
        for _ in range(9):
            monitor.record("t", "scan", latency_s=0.01, status="ok")
        monitor.record("t", "scan", latency_s=0.0, status="shed")
        (record,) = monitor.snapshot()
        assert record["burn"]["fast"]["burn_rate"] == pytest.approx(1.0)
        assert record["error_budget_remaining"] == pytest.approx(0.0)

    def test_total_outage_burns_at_inverse_allowance(self):
        monitor, _ = make_monitor(objective=0.99)
        monitor.record("t", "scan", latency_s=0.0, status="error")
        (record,) = monitor.snapshot()
        assert record["burn"]["fast"]["burn_rate"] == pytest.approx(100.0)
        assert record["error_budget_remaining"] == 0.0

    def test_degraded_does_not_spend_availability_budget(self):
        monitor, _ = make_monitor(objective=0.99)
        monitor.record("t", "scan", latency_s=0.01, status="degraded")
        (record,) = monitor.snapshot()
        assert record["burn"]["slow"]["errors"] == 0

    def test_multi_window_separates_spike_from_sustained(self):
        monitor, clock = make_monitor(
            objective=0.9, windows=(10.0, 1000.0)
        )
        for _ in range(50):
            monitor.record("t", "scan", latency_s=0.01, status="ok")
        clock.advance(100.0)  # push the healthy half out of fast window
        for _ in range(5):
            monitor.record("t", "scan", latency_s=0.0, status="shed")
        (record,) = monitor.snapshot()
        fast = record["burn"]["fast"]["burn_rate"]
        slow = record["burn"]["slow"]["burn_rate"]
        assert fast == pytest.approx(10.0)   # 100% errors / 10% allowance
        assert slow == pytest.approx(5 / 55 / 0.1)
        assert fast > slow


class TestMaxBurnRates:
    @staticmethod
    def from_snapshot(monitor, now):
        records = monitor.snapshot(now)
        return (
            max([0.0] + [r["burn"]["fast"]["burn_rate"] for r in records]),
            max([0.0] + [r["burn"]["slow"]["burn_rate"] for r in records]),
        )

    def test_empty_monitor(self):
        monitor, _ = make_monitor()
        assert monitor.max_burn_rates() == (0.0, 0.0)

    def test_windows_without_requests(self):
        monitor, clock = make_monitor(windows=(10.0, 100.0))
        monitor.record("t", "scan", latency_s=0.0, status="error")
        clock.advance(50.0)  # out of the fast window only
        assert monitor.max_burn_rates() == self.from_snapshot(
            monitor, clock.now)
        assert monitor.max_burn_rates()[0] == 0.0
        clock.advance(100.0)  # out of both
        assert monitor.max_burn_rates() == (0.0, 0.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_the_snapshot_maxima(self, seed):
        import random

        rng = random.Random(seed)
        monitor, clock = make_monitor(
            objective=rng.choice([0.9, 0.99, 0.999]),
            windows=(rng.uniform(1.0, 20.0), rng.uniform(20.0, 200.0)),
            max_samples=rng.choice([4, 64, 4096]),
        )
        statuses = ("ok", "degraded", "shed", "error")
        for _ in range(rng.randrange(0, 400)):
            clock.advance(rng.expovariate(1.0))
            monitor.record(
                f"t{rng.randrange(6)}", rng.choice(["scan", "greedy_sc"]),
                latency_s=rng.random(), status=rng.choice(statuses),
                cached=rng.random() < 0.2,
            )
        for later in (0.0, 5.0, 60.0, 500.0):
            now = clock.now + later
            assert monitor.max_burn_rates(now) == \
                self.from_snapshot(monitor, now)


class TestPrometheus:
    def test_exposition_parses_and_carries_labels(self):
        monitor, _ = make_monitor()
        monitor.record("acme", "scan", latency_s=0.01, status="ok")
        monitor.record("beta", "scan+", latency_s=0.0, status="shed")
        samples = parse_prometheus(monitor.to_prometheus())
        by_name = {}
        for sample in samples:
            by_name.setdefault(sample["name"], []).append(sample)
        requests = by_name["service_slo_requests_total"]
        assert {tuple(sorted(s["labels"].items())) for s in requests} == {
            (("algorithm", "scan"), ("tenant", "acme")),
            (("algorithm", "scan+"), ("tenant", "beta")),
        }
        # declared counter type survives the round trip
        assert all(s["type"] == "counter" for s in requests)
        latencies = by_name["service_slo_latency_seconds"]
        assert {s["labels"]["quantile"] for s in latencies} == \
            {"0.50", "0.95", "0.99"}

    def test_failed_only_series_omits_latency(self):
        monitor, _ = make_monitor()
        monitor.record("t", "scan", latency_s=0.0, status="shed")
        samples = parse_prometheus(monitor.to_prometheus())
        assert not [s for s in samples
                    if s["name"] == "service_slo_latency_seconds"]

    def test_empty_monitor_still_parses(self):
        monitor, _ = make_monitor()
        assert parse_prometheus(monitor.to_prometheus()) == []


class TestThreadSafety:
    def test_concurrent_recording_loses_nothing(self):
        monitor, _ = make_monitor()

        def hammer(tenant):
            for _ in range(500):
                monitor.record(tenant, "scan", latency_s=0.01, status="ok")

        threads = [
            threading.Thread(target=hammer, args=(f"t{i}",))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snapshot = monitor.snapshot()
        assert sum(r["lifetime"]["requests"] for r in snapshot) == 2000

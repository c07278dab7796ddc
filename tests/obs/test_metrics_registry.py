"""MetricsRegistry: instruments, labels, exposition, and thread safety."""

import json
import threading

import pytest

from repro.obs.metrics import MetricsError, MetricsRegistry


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        runs = registry.counter("runs_total", "Runs.")
        runs.inc()
        runs.inc(4)
        assert registry.value("runs_total") == 5.0

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        runs = registry.counter("runs_total", "Runs.")
        with pytest.raises(MetricsError):
            runs.inc(-1)

    def test_labeled_series_are_independent(self):
        registry = MetricsRegistry()
        runs = registry.counter("runs_total", "Runs.", labels=("status",))
        runs.labels(status="completed").inc(3)
        runs.labels(status="failed").inc()
        assert registry.value("runs_total", status="completed") == 3.0
        assert registry.value("runs_total", status="failed") == 1.0

    def test_get_or_create_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("runs_total", "Runs.")
        second = registry.counter("runs_total", "Runs.")
        assert first is second

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("runs_total", "Runs.")
        with pytest.raises(MetricsError):
            registry.gauge("runs_total", "Not a gauge.")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("runs_total", "Runs.", labels=("status",))
        with pytest.raises(MetricsError):
            registry.counter("runs_total", "Runs.", labels=("other",))

    def test_invalid_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.counter("bad name!", "Nope.")


class TestGauge:
    def test_set_overwrites(self):
        registry = MetricsRegistry()
        depth = registry.gauge("queue_depth", "Depth.")
        depth.set(7)
        depth.set(5)
        assert registry.value("queue_depth") == 5.0
        depth.labels().set(2)
        assert registry.value("queue_depth") == 2.0


class TestHistogram:
    def test_observe_and_state(self):
        registry = MetricsRegistry()
        h = registry.histogram("latency", "L.", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            h.observe(value)
        bounds, counts, total, count = h.state()
        assert bounds == (0.1, 1.0, 10.0)
        assert counts == [1, 1, 1, 1]  # one observation per bucket + +Inf
        assert count == 4
        assert total == pytest.approx(55.55)

    def test_quantile_estimates(self):
        registry = MetricsRegistry()
        h = registry.histogram("latency", "L.", buckets=(1.0, 2.0, 4.0))
        for _ in range(99):
            h.observe(0.5)
        h.observe(3.0)
        assert h.quantile(0.5) <= 1.0
        # The tail estimate lands in the 2..4 bucket.
        assert 2.0 <= h.quantile(0.999) <= 4.0

    def test_quantile_empty_is_zero(self):
        registry = MetricsRegistry()
        h = registry.histogram("latency", "L.")
        assert h.quantile(0.99) == 0.0


class TestCardinalityGuardrail:
    def test_overflow_collapses_to_other(self):
        registry = MetricsRegistry(max_series_per_metric=3)
        family = registry.counter("hits", "H.", labels=("key",))
        for i in range(10):
            family.labels(key=f"k{i}").inc()
        series = family.series()
        label_values = {key[0] for key, _instrument in series}
        assert "_other_" in label_values
        # Bounded: 3 real series plus the overflow bucket.
        assert len(series) == 4
        assert family.overflowed == 7
        assert registry.value("hits", key="_other_") == 7.0

    def test_existing_series_keep_working_after_overflow(self):
        registry = MetricsRegistry(max_series_per_metric=2)
        family = registry.counter("hits", "H.", labels=("key",))
        family.labels(key="a").inc()
        family.labels(key="b").inc()
        family.labels(key="c").inc()  # overflow
        family.labels(key="a").inc()  # still the real series
        assert registry.value("hits", key="a") == 2.0


class TestExposition:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        runs = registry.counter("repro_runs_total", "Served runs.", labels=("status",))
        runs.labels(status="completed").inc(2)
        registry.gauge("repro_depth", "Queue depth.").set(3)
        registry.histogram(
            "repro_latency_seconds", "Latency.", buckets=(0.1, 1.0)
        ).observe(0.5)
        return registry

    def test_prometheus_text_format(self):
        text = self._populated().to_prometheus()
        assert "# HELP repro_runs_total Served runs." in text
        assert "# TYPE repro_runs_total counter" in text
        assert 'repro_runs_total{status="completed"} 2' in text
        assert "# TYPE repro_depth gauge" in text
        assert 'repro_latency_seconds_bucket{le="0.1"} 0' in text
        assert 'repro_latency_seconds_bucket{le="1"} 1' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_latency_seconds_sum 0.5" in text
        assert "repro_latency_seconds_count 1" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "C.", labels=("path",))
        family.labels(path='a"b\\c\nd').inc()
        text = registry.to_prometheus()
        assert '{path="a\\"b\\\\c\\nd"}' in text

    def test_snapshot_and_json_round_trip(self):
        registry = self._populated()
        snapshot = registry.snapshot()
        assert snapshot["repro_depth"]["series"][0]["value"] == 3.0
        hist = snapshot["repro_latency_seconds"]["series"][0]
        assert hist["count"] == 1
        assert hist["buckets"]["+Inf"] == 1
        assert "p99" in hist
        parsed = json.loads(registry.to_json())
        assert parsed.keys() == snapshot.keys()


class TestConcurrency:
    def test_concurrent_writers_lose_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", "Ops.", labels=("worker",))
        hist = registry.histogram("obs", "Obs.", buckets=(0.5, 1.5))
        n_threads, n_iter = 8, 2000
        barrier = threading.Barrier(n_threads)

        def hammer(worker: int):
            series = counter.labels(worker=str(worker % 2))
            barrier.wait()
            for i in range(n_iter):
                series.inc()
                hist.observe(1.0)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * n_iter
        assert registry.value("ops_total", worker="0") == total / 2
        assert registry.value("ops_total", worker="1") == total / 2
        _bounds, counts, observed_sum, count = hist.state()
        assert count == total
        assert sum(counts) == total
        assert observed_sum == pytest.approx(float(total))

    def test_snapshot_consistent_under_writers(self):
        registry = MetricsRegistry()
        hist = registry.histogram("obs", "Obs.", buckets=(1.0,))
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                hist.observe(0.5)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(50):
                _bounds, counts, _sum, count = hist.state()
                # state() is taken under the lock: the per-bucket counts
                # must always add up to the total, mid-hammer included.
                assert sum(counts) == count
                series = registry.snapshot()["obs"]["series"][0]
                assert series["buckets"]["+Inf"] == series["count"]
        finally:
            stop.set()
            thread.join()

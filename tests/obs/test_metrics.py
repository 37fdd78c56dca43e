"""Tests for the metric registry: instruments, buckets, determinism."""

import math

import pytest

from repro import obs
from repro.obs.metrics import (
    DEFAULT_BYTES_EDGES,
    Counter,
    Gauge,
    Histogram,
    log_bucket_edges,
)


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge()
        g.set(3)
        g.set(7.5)
        assert g.value == 7.5


class TestLogBucketEdges:
    def test_spans_range_inclusive(self):
        edges = log_bucket_edges(1e-3, 1e3, per_decade=1)
        assert edges[0] == pytest.approx(1e-3)
        assert edges[-1] == pytest.approx(1e3)
        assert len(edges) == 7

    def test_strictly_increasing(self):
        edges = log_bucket_edges(1e-6, 1e2, per_decade=3)
        assert all(a < b for a, b in zip(edges, edges[1:]))

    def test_same_triple_same_edges(self):
        assert log_bucket_edges(1e-6, 1e2, 3) == log_bucket_edges(
            1e-6, 1e2, 3
        )

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            log_bucket_edges(0.0, 1.0)
        with pytest.raises(ValueError):
            log_bucket_edges(10.0, 1.0)


class TestHistogramBuckets:
    def test_value_on_boundary_closes_its_bucket(self):
        # v <= edge: a value exactly on an edge lands in the bucket
        # that edge closes, never the next one.
        h = Histogram(edges=(1.0, 10.0, 100.0))
        h.observe(10.0)
        assert h.bucket_counts == [0, 1, 0, 0]
        h.observe(1.0)
        assert h.bucket_counts == [1, 1, 0, 0]

    def test_zero_and_negative_underflow(self):
        h = Histogram(edges=(1.0, 10.0))
        h.observe(0.0)
        h.observe(-5.0)
        assert h.bucket_counts == [2, 0, 0]

    def test_inf_overflows(self):
        h = Histogram(edges=(1.0, 10.0))
        h.observe(math.inf)
        h.observe(11.0)
        assert h.bucket_counts == [0, 0, 2]
        assert h.max == math.inf

    def test_no_observation_dropped(self):
        h = Histogram(edges=(1.0, 2.0, 4.0))
        for v in (0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, math.inf):
            h.observe(v)
        assert sum(h.bucket_counts) == h.count == 8

    def test_stats(self):
        h = Histogram(edges=(1.0, 10.0))
        h.observe_many([2.0, 4.0])
        assert h.count == 2
        assert h.sum == pytest.approx(6.0)
        assert h.min == 2.0
        assert h.max == 4.0

    def test_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram(edges=())
        with pytest.raises(ValueError):
            Histogram(edges=(1.0, 1.0))

    def test_bytes_edges_are_exact_floats(self):
        # Power-of-four edges: integer byte counts bucket identically
        # on every platform.
        assert all(e == int(e) for e in DEFAULT_BYTES_EDGES)


class TestRegistry:
    def test_get_or_create_identity(self):
        r = obs.MetricRegistry()
        a = r.counter("x", kind="a")
        assert r.counter("x", kind="a") is a
        assert r.counter("x", kind="b") is not a

    def test_label_order_irrelevant(self):
        r = obs.MetricRegistry()
        a = r.counter("x", alpha=1, beta=2)
        b = r.counter("x", beta=2, alpha=1)
        assert a is b

    def test_type_conflict_raises(self):
        r = obs.MetricRegistry()
        r.counter("x")
        with pytest.raises(TypeError):
            r.gauge("x")

    def test_snapshot_order_deterministic(self):
        # Same instruments created in different orders -> identical
        # snapshots (the manifest-diffability requirement).
        r1 = obs.MetricRegistry()
        r1.counter("b").inc()
        r1.counter("a", z=1, a=2).inc()
        r1.counter("a", a=2, y=1).inc()
        r2 = obs.MetricRegistry()
        r2.counter("a", a=2, y=1).inc()
        r2.counter("b").inc()
        r2.counter("a", a=2, z=1).inc()
        assert r1.snapshot() == r2.snapshot()

    def test_snapshot_shape(self):
        r = obs.MetricRegistry()
        r.gauge("g", k="v").set(3)
        r.histogram("h", edges=(1.0, 2.0)).observe(1.5)
        snap = r.snapshot()
        by_name = {e["name"]: e for e in snap}
        assert by_name["g"] == {
            "name": "g", "type": "gauge", "labels": {"k": "v"},
            "value": 3.0,
        }
        h = by_name["h"]
        assert h["type"] == "histogram"
        assert h["count"] == 1
        assert h["bucket_counts"] == [0, 1, 0]

    def test_empty_histogram_min_max_none(self):
        r = obs.MetricRegistry()
        r.histogram("h", edges=(1.0,))
        (entry,) = r.snapshot()
        assert entry["min"] is None and entry["max"] is None


class TestGlobalRegistry:
    def test_null_by_default(self):
        assert obs.get_registry() is obs.NULL_REGISTRY
        assert not obs.get_registry().enabled

    def test_collecting_installs_and_restores(self):
        before = obs.get_registry()
        with obs.collecting() as registry:
            assert obs.get_registry() is registry
            assert registry.enabled
        assert obs.get_registry() is before

    def test_collecting_restores_on_exception(self):
        before = obs.get_registry()
        with pytest.raises(RuntimeError):
            with obs.collecting():
                raise RuntimeError()
        assert obs.get_registry() is before

    def test_null_registry_records_nothing(self):
        null = obs.NULL_REGISTRY
        null.counter("x", k=1).inc()
        null.gauge("y").set(2)
        null.histogram("z").observe(3.0)
        null.histogram("z").observe_many([1.0, 2.0])
        assert null.snapshot() == []

"""Metrics registry: exact merging, wire round-trip, volatility."""

import json

import pytest

from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
    deterministic_view,
)


def _sample() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("c").inc(3)
    reg.gauge("g").set(2.5)
    h = reg.histogram("h", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)  # overflow
    reg.counter("wall", volatile=True).inc()
    return reg


class TestPrimitives:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        assert reg.counter("c").value == 5
        reg.gauge("g").set(1.0)
        reg.gauge("g").max(0.5)  # lower: ignored
        reg.gauge("g").max(2.0)
        assert reg.gauge("g").value == 2.0

    def test_histogram_buckets_le_semantics(self):
        h = Histogram("h", buckets=(0.1, 1.0))
        for v in (0.1, 0.05, 0.9, 1.0, 2.0):
            h.observe(v)
        # counts are per-bucket (non-cumulative) + overflow
        assert h.counts == [2, 2, 1]
        assert h.count == 5
        assert h.mean == pytest.approx(sum((0.1, 0.05, 0.9, 1.0, 2.0)) / 5)

    def test_histogram_default_buckets(self):
        assert Histogram("h").buckets == DEFAULT_TIME_BUCKETS

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 0.1))

    def test_histogram_merge_requires_same_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0,))
        b.histogram("h", buckets=(2.0,))
        with pytest.raises(ValueError):
            a.merge(b)


class TestRegistry:
    def test_get_or_create_and_type_guard(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_histogram_redeclare_bucket_mismatch(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0,))
        reg.histogram("h")  # no buckets: fine, returns existing
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(2.0,))

    def test_snapshot_sorted_and_json_able(self):
        snap = _sample().snapshot()
        assert list(snap) == sorted(snap)
        json.dumps(snap)  # must not raise
        assert snap["c"] == {"type": "counter", "value": 3, "volatile": False}
        assert snap["h"]["counts"] == [1, 1, 1]

    def test_deterministic_view_drops_volatile(self):
        snap = _sample().snapshot()
        det = deterministic_view(snap)
        assert "wall" in snap and "wall" not in det
        assert set(det) == {"c", "g", "h"}
        assert _sample().snapshot(include_volatile=False) == det

    def test_to_json_round_trips(self):
        assert json.loads(_sample().to_json()) == _sample().snapshot()


class TestMergeAndWire:
    def test_wire_round_trip_is_identity(self):
        reg = _sample()
        assert MetricsRegistry.from_wire(reg.to_wire()) == reg

    def test_merge_wire_is_additive(self):
        reg = MetricsRegistry.from_wire(_sample().to_wire())
        reg.merge_wire(_sample().to_wire())
        assert reg.counter("c").value == 6
        assert reg.gauge("g").value == 2.5  # max, not sum
        assert reg.histogram("h").count == 6
        assert reg.histogram("h").counts == [2, 2, 2]

    def test_merge_registries(self):
        a, b = _sample(), _sample()
        a.merge(b)
        assert a.counter("c").value == 6
        assert a.histogram("h").sum == pytest.approx(2 * b.histogram("h").sum)

    def test_merge_order_independent_for_exact_values(self):
        # Bucket counts and integer-valued sums merge exactly in any
        # order; non-representable float sums are why the harness merges
        # in ascending-seed order (making order part of the contract).
        regs = []
        for order in ((1, 2, 3), (3, 2, 1)):
            merged = MetricsRegistry()
            for n in order:
                part = MetricsRegistry()
                part.counter("c").inc(n)
                part.histogram("h", buckets=(2.0,)).observe(float(n))
                merged.merge_wire(part.to_wire())
            regs.append(merged)
        assert regs[0] == regs[1]
        assert regs[0].histogram("h").counts == [2, 1]

    def test_wire_is_picklable(self):
        import pickle

        wire = _sample().to_wire()
        assert pickle.loads(pickle.dumps(wire)) == wire

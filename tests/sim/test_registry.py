"""Unit tests for the typed metrics registry."""

import json

import pytest

from repro.obs import CardinalityError, MetricsRegistry


class TestCounters:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("mac.tx") is reg.counter("mac.tx")

    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("mac.tx")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.value("mac.tx") == 5

    def test_counter_is_monotone(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("mac.tx").inc(-1)

    def test_missing_value_is_zero(self):
        assert MetricsRegistry().value("never") == 0

    def test_labelled_series_are_independent(self):
        reg = MetricsRegistry()
        reg.counter("mac.tx", node="1").inc(3)
        reg.counter("mac.tx", node="2").inc()
        reg.counter("mac.tx").inc(10)
        assert reg.value("mac.tx", node="1") == 3
        assert reg.value("mac.tx", node="2") == 1
        assert reg.value("mac.tx") == 10

    def test_counters_flat_formats_labels(self):
        reg = MetricsRegistry()
        reg.counter("mac.tx").inc(2)
        reg.counter("mac.tx", node="7").inc()
        flat = reg.counters_flat()
        assert flat["mac.tx"] == 2
        assert flat["mac.tx{node=7}"] == 1

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("x", a="1", b="2")
        b = reg.counter("x", b="2", a="1")
        assert a is b


class TestKindsAndCardinality:
    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ValueError):
            reg.gauge("m")
        with pytest.raises(ValueError):
            reg.histogram("m")

    def test_cardinality_bound(self):
        reg = MetricsRegistry(max_series_per_name=3)
        for i in range(3):
            reg.counter("c", node=str(i))
        with pytest.raises(CardinalityError):
            reg.counter("c", node="overflow")
        # existing series still reachable
        assert reg.counter("c", node="1") is not None


class TestGauges:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("heap.depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12


class TestHistograms:
    def test_bucket_edges_le_semantics(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1, 2, 5))
        for v in (0.5, 1, 1.5, 2, 4, 5, 99):
            h.observe(v)
        # le-1: {0.5, 1}; le-2: {1.5, 2}; le-5: {4, 5}; overflow: {99}
        assert h.counts == [2, 2, 2, 1]
        assert h.count == 7
        assert h.sum == pytest.approx(0.5 + 1 + 1.5 + 2 + 4 + 5 + 99)
        assert h.mean() == pytest.approx(h.sum / 7)

    def test_bucket_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1, 2))
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(1, 2, 3))

    def test_omitted_buckets_reuse_registered_edges(self):
        reg = MetricsRegistry()
        a = reg.histogram("h", buckets=(1, 2))
        b = reg.histogram("h")
        assert a is b

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(5, 1))

    def test_value_on_histogram_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1,)).observe(0.5)
        with pytest.raises(TypeError):
            reg.value("h")


class TestSnapshot:
    def test_snapshot_is_json_serializable_and_complete(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.counter("c", node="3").inc()
        reg.gauge("g").set(1.5)
        h = reg.histogram("h", buckets=(1, 10))
        h.observe(0.5)
        h.observe(100)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["counters"] == {"c": 2, "c{node=3}": 1}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["counts"] == [1, 0, 1]
        assert snap["histograms"]["h"]["count"] == 2


class TestQuantiles:
    """Percentile estimation on known distributions (the /metrics p50/p95/p99)."""

    def test_uniform_within_one_bucket_interpolates(self):
        from repro.obs import quantile_from_counts

        # 100 observations uniform in (0, 1]: the estimator assumes
        # uniformity within a bucket, so quantiles are exact here
        assert quantile_from_counts((1.0,), [100, 0], 0.5) == pytest.approx(0.5)
        assert quantile_from_counts((1.0,), [100, 0], 0.95) == pytest.approx(0.95)
        assert quantile_from_counts((1.0,), [100, 0], 0.99) == pytest.approx(0.99)

    def test_known_two_bucket_distribution(self):
        from repro.obs import quantile_from_counts

        # 90 observations in (0, 10], 10 in (10, 100]
        buckets, counts = (10.0, 100.0), [90, 10, 0]
        assert quantile_from_counts(buckets, counts, 0.5) == pytest.approx(10 * 50 / 90)
        # p95: rank 95 falls 5 observations into the second bucket
        assert quantile_from_counts(buckets, counts, 0.95) == pytest.approx(
            10 + 90 * (95 - 90) / 10
        )
        assert quantile_from_counts(buckets, counts, 1.0) == pytest.approx(100.0)

    def test_overflow_bucket_clamps_to_last_edge(self):
        from repro.obs import quantile_from_counts

        # everything above the last edge: the histogram can only say ">= 2"
        assert quantile_from_counts((1.0, 2.0), [0, 0, 50], 0.99) == 2.0

    def test_empty_histogram_returns_none(self):
        from repro.obs import quantile_from_counts

        assert quantile_from_counts((1.0,), [0, 0], 0.5) is None

    def test_bad_q_rejected(self):
        from repro.obs import quantile_from_counts

        with pytest.raises(ValueError):
            quantile_from_counts((1.0,), [1, 0], 1.5)

    def test_histogram_quantile_method(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.quantile(0.0) == pytest.approx(0.0)
        assert h.quantile(1.0) == pytest.approx(4.0)
        assert 1.0 <= h.quantile(0.5) <= 2.0

    def test_summarize_histogram_from_snapshot(self):
        from repro.obs import summarize_histogram

        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0,))
        for _ in range(100):
            h.observe(0.5)
        summary = summarize_histogram(json.loads(json.dumps(h.as_sample())))
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(0.5)
        assert summary["p50"] == pytest.approx(0.5)
        assert summary["p95"] == pytest.approx(0.95)
        assert summary["p99"] == pytest.approx(0.99)

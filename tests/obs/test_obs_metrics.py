"""Unit coverage for the metrics registry and its expositions."""

import json
import urllib.request

import pytest

from repro.obs.httpd import start_metrics_server
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricError,
    MetricsRegistry,
    get_registry,
)


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        fam = reg.counter("rounds_total", help="Rounds run.")
        fam.inc()
        fam.inc(2.5)
        assert fam.labels().value == pytest.approx(3.5)

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.counter("c_total").inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("epsilon_spent")
        g.set(4.0)
        g.inc(1.0)
        g.inc(-2.0)
        assert g.labels().value == pytest.approx(3.0)

    def test_histogram_buckets_and_cumulative_counts(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0)).labels()
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.bucket_counts == [1, 1, 1, 1]
        assert h.cumulative_counts() == [1, 2, 3, 4]
        assert h.sum == pytest.approx(55.55)
        assert h.count == 4

    def test_histogram_default_buckets(self):
        reg = MetricsRegistry()
        fam = reg.histogram("t_seconds")
        assert fam.buckets == DEFAULT_BUCKETS

    def test_histogram_unsorted_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.histogram("bad_seconds", buckets=(1.0, 0.1))


class TestFamiliesAndRegistry:
    def test_labels_key_children_independently(self):
        reg = MetricsRegistry()
        fam = reg.counter("bytes_total")
        fam.labels(type="ping").inc(10)
        fam.labels(type="update").inc(20)
        assert fam.labels(type="ping").value == 10
        assert fam.labels(type="update").value == 20
        assert len(fam.children()) == 2

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        fam = reg.counter("c_total")
        fam.labels(a="1", b="2").inc()
        assert fam.labels(b="2", a="1").value == 1

    def test_same_name_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total") is reg.counter("x_total")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(MetricError):
            reg.gauge("x_total")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.counter("bad name")
        with pytest.raises(MetricError):
            reg.counter("ok_total").labels(**{"le": "x", "0bad": "y"})

    def test_reset_drops_families(self):
        reg = MetricsRegistry()
        reg.counter("x_total").inc()
        reg.reset()
        assert reg.families() == []

    def test_get_registry_is_a_stable_singleton(self):
        assert get_registry() is get_registry()


class TestExposition:
    def build(self):
        reg = MetricsRegistry()
        reg.counter("bytes_total", help="Bytes.", unit="bytes").labels(
            type="ping").inc(7)
        reg.gauge("eps", help="Epsilon.").set(1.25)
        reg.histogram("lat_seconds", help="Latency.",
                      buckets=(0.5, 2.0)).observe(1.0)
        return reg

    def test_prometheus_text_format(self):
        text = self.build().render_prometheus()
        assert "# HELP bytes_total Bytes." in text
        assert "# TYPE bytes_total counter" in text
        assert 'bytes_total{type="ping"} 7' in text
        assert "# TYPE eps gauge" in text
        assert "eps 1.25" in text
        assert 'lat_seconds_bucket{le="0.5"} 0' in text
        assert 'lat_seconds_bucket{le="2"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_sum 1" in text
        assert "lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total").labels(path='a"b\\c\nd').inc()
        text = reg.render_prometheus()
        assert r'path="a\"b\\c\nd"' in text

    def test_snapshot_roundtrips_through_json(self):
        reg = self.build()
        snap = json.loads(reg.render_json())
        assert snap["bytes_total"]["type"] == "counter"
        assert snap["bytes_total"]["unit"] == "bytes"
        assert snap["bytes_total"]["samples"][0] == {
            "labels": {"type": "ping"}, "value": 7.0}
        hist = snap["lat_seconds"]["samples"][0]
        assert hist["count"] == 1
        assert hist["buckets"] == {"0.5": 0, "2": 1, "+Inf": 1}

    def test_families_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("z_total")
        reg.counter("a_total")
        assert [f.name for f in reg.families()] == ["a_total", "z_total"]


class TestMetricsHttpd:
    def test_serves_prometheus_and_json(self):
        reg = MetricsRegistry()
        reg.counter("up_total", help="Liveness.").inc()
        with start_metrics_server(0, registry=reg) as server:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(base + "/metrics") as resp:
                body = resp.read().decode()
                assert resp.status == 200
                assert "text/plain" in resp.headers["Content-Type"]
                assert "up_total 1" in body
            with urllib.request.urlopen(base + "/metrics.json") as resp:
                snap = json.loads(resp.read().decode())
                assert snap["up_total"]["samples"][0]["value"] == 1.0

    def test_unknown_path_is_404(self):
        with start_metrics_server(0, registry=MetricsRegistry()) as server:
            url = f"http://127.0.0.1:{server.port}/nope"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(url)
            assert err.value.code == 404

"""Tests for the Prometheus metrics registry and the Histogram core."""

from __future__ import annotations

import math
import threading

import pytest

from repro.obs.core import Histogram
from repro.serve.metrics import (
    Metrics,
    escape_label_value,
    format_value,
    parse_prometheus_text,
    quantile_from_buckets,
)


class TestHistogram:
    def test_bucket_boundaries_log_spaced(self):
        h = Histogram(lo=0.001, hi=10.0, buckets_per_decade=1)
        assert h.bounds == pytest.approx([0.001, 0.01, 0.1, 1.0, 10.0])
        # one count slot per bound, plus the overflow bucket
        assert len(h.counts) == len(h.bounds) + 1

    def test_top_bound_is_exact(self):
        h = Histogram(lo=1e-4, hi=1e3, buckets_per_decade=5)
        assert h.bounds[-1] == 1e3  # no float drift from 10**(i/bpd)

    def test_observe_routes_to_upper_bound_bucket(self):
        h = Histogram(lo=0.001, hi=10.0, buckets_per_decade=1)
        h.observe(0.0005)   # below lo -> first bucket (le=0.001)
        h.observe(0.005)    # -> le=0.01
        h.observe(0.01)     # boundary lands in its own bucket (le semantics)
        h.observe(5.0)      # -> le=10
        h.observe(100.0)    # above hi -> overflow
        counts, count, total, low, high = h.snapshot()
        assert counts == [1, 2, 0, 0, 1, 1]
        assert count == 5
        assert total == pytest.approx(0.0005 + 0.005 + 0.01 + 5.0 + 100.0)
        assert low == pytest.approx(0.0005)
        assert high == pytest.approx(100.0)

    def test_percentile_upper_bound_convention(self):
        h = Histogram(lo=0.001, hi=10.0, buckets_per_decade=1)
        for _ in range(99):
            h.observe(0.005)
        h.observe(42.0)
        assert h.percentile(0.50) == pytest.approx(0.01)
        # overflow bucket answers with the largest observed value
        assert h.percentile(1.0) == pytest.approx(42.0)

    def test_empty_histogram(self):
        h = Histogram()
        assert h.percentile(0.5) == 0.0
        assert h.mean == 0.0
        doc = h.to_json()
        assert doc["count"] == 0 and doc["min"] is None and doc["max"] is None

    def test_cumulative_ends_at_inf_total(self):
        h = Histogram(lo=0.001, hi=10.0, buckets_per_decade=1)
        for v in (0.005, 0.05, 100.0):
            h.observe(v)
        cumulative = h.cumulative()
        assert cumulative[-1] == (math.inf, 3)
        bounds = [b for b, _ in cumulative[:-1]]
        assert bounds == h.bounds
        counts = [c for _, c in cumulative]
        assert counts == sorted(counts)  # monotone

    def test_thread_safety_no_lost_updates(self):
        h = Histogram(lo=0.001, hi=10.0, buckets_per_decade=2)
        per_thread, threads = 2000, 8

        def pound(seed: int) -> None:
            for i in range(per_thread):
                h.observe(0.001 * ((seed + i) % 50 + 1))

        workers = [threading.Thread(target=pound, args=(t,))
                   for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        counts, count, total, _, _ = h.snapshot()
        assert count == per_thread * threads
        assert sum(counts) == count
        assert total > 0.0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            Histogram(lo=1.0, hi=1.0)
        with pytest.raises(ValueError):
            Histogram(lo=0.1, hi=1.0, buckets_per_decade=0)


class TestEscaping:
    def test_escape_round_trip(self):
        from repro.serve.metrics import _unescape_label_value

        for raw in ('plain', 'has "quotes"', 'back\\slash', 'new\nline',
                    'all \\ " \n at once'):
            assert _unescape_label_value(escape_label_value(raw)) == raw

    def test_escaped_forms(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value('a\\b') == 'a\\\\b'
        assert escape_label_value('a\nb') == 'a\\nb'

    def test_format_value(self):
        assert format_value(3.0) == "3"
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"
        assert format_value(float("nan")) == "NaN"
        assert format_value(0.25) == "0.25"


class TestMetricsRender:
    def _registry(self) -> Metrics:
        m = Metrics()
        m.counter("jobs_total", "Jobs by status.")
        m.counter("requests_total", "All HTTP requests.")
        m.gauge("queue_depth", "Jobs waiting.", lambda: 7)
        m.histogram("stage_seconds", "Per-stage latency.",
                    lo=0.001, hi=10.0, buckets_per_decade=1)
        return m

    def test_render_parses_back_exactly(self):
        m = self._registry()
        m.inc("jobs_total", labels={"status": "ok"})
        m.inc("jobs_total", 2, labels={"status": "failed"})
        m.observe("stage_seconds", 0.005, labels={"stage": "worker"})
        m.observe("stage_seconds", 0.5, labels={"stage": "worker"})
        parsed = parse_prometheus_text(m.render())
        assert parsed["jobs_total"][(("status", "ok"),)] == 1.0
        assert parsed["jobs_total"][(("status", "failed"),)] == 2.0
        assert parsed["queue_depth"][()] == 7.0
        # counter never incremented still exposes a zero sample
        assert parsed["requests_total"][()] == 0.0
        assert parsed["stage_seconds_count"][(("stage", "worker"),)] == 2.0
        assert parsed["stage_seconds_sum"][(("stage", "worker"),)] \
            == pytest.approx(0.505)

    def test_histogram_buckets_cumulative_with_inf(self):
        m = self._registry()
        for v in (0.005, 0.05, 100.0):
            m.observe("stage_seconds", v, labels={"stage": "total"})
        parsed = parse_prometheus_text(m.render())
        buckets = {
            dict(key)["le"]: value
            for key, value in parsed["stage_seconds_bucket"].items()
            if dict(key)["stage"] == "total"
        }
        assert buckets["+Inf"] == 3.0
        assert buckets["10"] == 2.0
        assert buckets["0.01"] == 1.0
        finite = [float(le) for le in buckets if le != "+Inf"]
        series = sorted((le, buckets[f"{format_value(le)}"])
                        for le in finite)
        values = [v for _, v in series]
        assert values == sorted(values)  # cumulative counts are monotone

    def test_counter_values_read_what_render_shows(self):
        m = self._registry()
        m.inc("jobs_total", labels={"status": "ok"})
        m.inc("jobs_total", 2, labels={"status": "failed"})
        samples = {"ok": ("jobs_total", {"status": "ok"}),
                   "failed": ("jobs_total", {"status": "failed"}),
                   "requests": ("requests_total", None)}
        # a sample that never fired reads zero, like its rendered line
        assert m.counter_values(samples) == \
            {"ok": 1.0, "failed": 2.0, "requests": 0.0}
        parsed = parse_prometheus_text(m.render())
        for key, (family, labels) in samples.items():
            assert parsed[family][tuple(sorted((labels or {}).items()))] \
                == m.counter_values(samples)[key]
        with pytest.raises(KeyError):
            m.counter_values({"x": ("never_declared_total", None)})

    def test_label_values_survive_render_parse(self):
        m = Metrics()
        m.counter("weird_total", "Counter with hostile label values.")
        nasty = 'cl"ient\\one\nline2'
        m.inc("weird_total", labels={"client": nasty})
        parsed = parse_prometheus_text(m.render())
        assert parsed["weird_total"][(("client", nasty),)] == 1.0

    def test_help_and_type_lines_present(self):
        text = self._registry().render()
        assert "# HELP queue_depth Jobs waiting." in text
        assert "# TYPE queue_depth gauge" in text
        assert "# TYPE jobs_total counter" in text
        assert "# TYPE stage_seconds histogram" in text

    def test_unknown_family_raises(self):
        m = Metrics()
        with pytest.raises(KeyError):
            m.inc("never_declared_total")
        with pytest.raises(KeyError):
            m.observe("never_declared_seconds", 1.0)

    def test_parse_rejects_malformed_lines(self):
        for bad in ("no_value_here", 'x{le="0.1" 1', "name 1 2 3"):
            with pytest.raises(ValueError):
                parse_prometheus_text(bad)


class TestQuantileFromBuckets:
    def test_reads_bucket_upper_bound(self):
        series = [(0.01, 90.0), (0.1, 99.0), (math.inf, 100.0)]
        assert quantile_from_buckets(series, 0.5) == pytest.approx(0.01)
        assert quantile_from_buckets(series, 0.95) == pytest.approx(0.1)
        # +Inf bucket reports the largest finite bound
        assert quantile_from_buckets(series, 1.0) == pytest.approx(0.1)

    def test_empty_series(self):
        assert quantile_from_buckets([], 0.5) == 0.0
        assert quantile_from_buckets([(math.inf, 0.0)], 0.99) == 0.0

"""Histogram quantile interpolation and promtext rendering."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.obs.metrics import (
    MetricsRegistry,
    quantile_from_cumulative,
    quantile_from_sample,
)
from repro.obs.promtext import render_prometheus


class TestQuantileFromCumulative:
    # Cumulative (le, count): 10 obs <= 1, 30 <= 2, 40 <= +Inf.
    BUCKETS = [(1.0, 10), (2.0, 30), (math.inf, 40)]

    def test_linear_interpolation_within_bucket(self):
        # Median rank 20 lands in the (1, 2] bucket holding 20 obs;
        # (20 - 10) / 20 of the way through -> 1.5.
        assert quantile_from_cumulative(self.BUCKETS, 0.5) == \
            pytest.approx(1.5)

    def test_first_bucket_interpolates_from_zero(self):
        # Rank 4 in the first bucket: lower bound is 0.
        assert quantile_from_cumulative(self.BUCKETS, 0.1) == \
            pytest.approx(0.4)

    def test_overflow_clamps_to_last_finite_bound(self):
        assert quantile_from_cumulative(self.BUCKETS, 0.99) == 2.0
        assert quantile_from_cumulative(self.BUCKETS, 1.0) == 2.0

    def test_empty_and_zero_total(self):
        with pytest.raises(ConfigError, match="at least one bucket"):
            quantile_from_cumulative([], 0.5)
        assert quantile_from_cumulative([(1.0, 0), (math.inf, 0)],
                                        0.5) == 0.0

    def test_q_out_of_range(self):
        with pytest.raises(ConfigError):
            quantile_from_cumulative(self.BUCKETS, 1.5)
        with pytest.raises(ConfigError):
            quantile_from_cumulative(self.BUCKETS, -0.1)

    def test_empty_middle_bucket_returns_upper_bound(self):
        buckets = [(1.0, 10), (2.0, 10), (4.0, 20), (math.inf, 20)]
        # Rank 15 falls in the (2, 4] bucket.
        assert quantile_from_cumulative(buckets, 0.75) == \
            pytest.approx(3.0)


class TestHistogramQuantile:
    def test_live_histogram_matches_exported_sample(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_latency_us", "latency", buckets=[1.0, 2.0, 4.0])
        for value in [0.5, 1.5, 1.5, 3.0, 10.0]:
            hist.observe(value)
        live = hist.quantile(0.5)
        sample = registry.to_dict()["metrics"][0]["samples"][0]
        assert quantile_from_sample(sample, 0.5) == pytest.approx(live)
        # p100 of an overflowed histogram clamps to the last bound.
        assert hist.quantile(1.0) == 4.0

    def test_quantile_from_sample_requires_buckets(self):
        with pytest.raises(ConfigError, match="buckets"):
            quantile_from_sample({"sum": 1.0, "count": 2}, 0.5)


class TestPromtextRendering:
    def test_label_values_are_escaped(self):
        nasty = 'back\\slash "quote"\nnewline'
        document = {"metrics": [{
            "type": "gauge", "name": "m", "help": "",
            "samples": [{"labels": {"path": nasty}, "value": 1.0}],
        }]}
        assert render_prometheus(document) == (
            '# TYPE m gauge\n'
            'm{path="back\\\\slash \\"quote\\"\\nnewline"} 1.0\n')

    def test_counter_gets_total_suffix(self):
        registry = MetricsRegistry()
        registry.counter("repro_ops", "ops").inc(3)
        lines = render_prometheus(registry.to_dict()).splitlines()
        assert "# TYPE repro_ops_total counter" in lines
        assert "repro_ops_total 3.0" in lines

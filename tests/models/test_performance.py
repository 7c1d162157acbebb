"""Unit tests for the §4.2 performance model."""

import pytest

from repro.errors import ConfigError
from repro.models.performance import (
    PerformanceModel,
    latency_factor,
    throughput_factor,
)


class TestSingleLevelFactors:
    def test_paper_numbers_for_l1(self):
        # §4.2: degradation by 4/(4-L), "e.g., 25 % reduction for L1".
        assert throughput_factor(1) == pytest.approx(0.75)
        assert latency_factor(1) == pytest.approx(4 / 3)

    def test_l0_is_unity(self):
        assert throughput_factor(0) == 1.0
        assert latency_factor(0) == 1.0

    def test_l3_is_4x(self):
        assert latency_factor(3) == pytest.approx(4.0)
        assert throughput_factor(3) == pytest.approx(0.25)

    def test_other_page_sizes(self):
        assert latency_factor(1, opages_per_fpage=2) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            throughput_factor(4)
        with pytest.raises(ConfigError):
            latency_factor(-1)
        with pytest.raises(ConfigError):
            throughput_factor(0, opages_per_fpage=0)


class TestMixedLevels:
    def test_all_l0_mix_is_unity(self):
        model = PerformanceModel()
        assert model.sequential_throughput_factor({0: 1.0}) == 1.0
        assert model.large_access_latency_factor({0: 1.0}) == 1.0

    def test_all_l1_mix_matches_single_level(self):
        model = PerformanceModel()
        assert model.sequential_throughput_factor({1: 1.0}) == \
            pytest.approx(0.75)
        assert model.large_access_latency_factor({1: 1.0}) == \
            pytest.approx(4 / 3)

    def test_mix_interpolates_monotonically(self):
        model = PerformanceModel()
        factors = [model.sequential_throughput_factor({0: 1 - f, 1: f})
                   for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(a > b for a, b in zip(factors, factors[1:]))

    def test_mix_must_sum_to_one(self):
        model = PerformanceModel()
        with pytest.raises(ConfigError):
            model.sequential_throughput_factor({0: 0.5})
        with pytest.raises(ConfigError):
            model.large_access_latency_factor({})


class TestAbsoluteLatencies:
    def test_small_reads_unaffected_by_level(self):
        # §4.2: "small, random accesses ... likely have the same latency".
        model = PerformanceModel()
        l0 = model.small_read_latency_us(0)
        l1 = model.small_read_latency_us(1)
        assert l1 == pytest.approx(l0, rel=0.05)

    def test_sequential_throughput_scales_with_channels(self):
        model = PerformanceModel()
        one = model.sequential_throughput_mbps({0: 1.0}, channels=1)
        eight = model.sequential_throughput_mbps({0: 1.0}, channels=8)
        assert eight == pytest.approx(8 * one)

    def test_sequential_throughput_drops_with_l1_fraction(self):
        model = PerformanceModel()
        fresh = model.sequential_throughput_mbps({0: 1.0}, channels=8)
        tired = model.sequential_throughput_mbps({1: 1.0}, channels=8)
        assert tired < fresh
        # Sense-dominated regime: the drop approaches the 25 % of Fig. 3c.
        assert tired / fresh == pytest.approx(0.75, abs=0.03)

    def test_sequential_throughput_validates_channels(self):
        model = PerformanceModel()
        with pytest.raises(ConfigError):
            model.sequential_throughput_mbps({0: 1.0}, channels=0)

    def test_lower_code_rate_mitigates_retries(self):
        # A worn L1 page retries *less* than the same RBER would cost at L0.
        model = PerformanceModel()
        policy = model.policy
        rber = policy.max_rber(0) * 0.95
        l0_latency = model.small_read_latency_us(0, rber=rber)
        l1_latency = model.small_read_latency_us(1, rber=rber)
        assert l1_latency < l0_latency

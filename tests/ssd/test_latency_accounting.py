"""Tests for per-operation read-latency accounting."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.ssd.stats import LatencyReservoir
from repro.ssd.ftl import FTLConfig, PageMappedFTL


class TestReservoir:
    def test_tracks_count_mean_max(self):
        reservoir = LatencyReservoir()
        for value in (10.0, 20.0, 30.0):
            reservoir.add(value)
        assert reservoir.count == 3
        assert reservoir.mean == pytest.approx(20.0)
        assert reservoir.max == 30.0

    def test_percentiles_on_uniform_data(self):
        reservoir = LatencyReservoir()
        for value in range(1, 1001):
            reservoir.add(float(value))
        assert reservoir.percentile(50) == pytest.approx(500, rel=0.05)
        assert reservoir.percentile(99) == pytest.approx(990, rel=0.05)

    def test_decimation_bounds_memory_but_keeps_shape(self):
        reservoir = LatencyReservoir(capacity=256)
        rng = np.random.default_rng(0)
        values = rng.exponential(100.0, size=50_000)
        for value in values:
            reservoir.add(float(value))
        assert len(reservoir._samples) <= 256
        assert reservoir.count == 50_000
        true_p99 = float(np.percentile(values, 99))
        assert reservoir.percentile(99) == pytest.approx(true_p99, rel=0.35)

    def test_empty_percentile_is_zero(self):
        assert LatencyReservoir().percentile(99) == 0.0

    @pytest.mark.parametrize("q", [0, 50, 99, 99.9, 100])
    @pytest.mark.parametrize("samples", [1, 2, 4095, 4096, 50_000])
    def test_percentile_is_numpys_bit_for_bit(self, samples, q):
        """The reservoir works numpy's ``linear`` rule in Python floats;
        it must give ``np.percentile``'s float exactly, on a reservoir
        that kept every sample (``_stride`` 1) and on decimated ones."""
        rng = np.random.default_rng(samples)
        draws = [rng.exponential(80.0, samples),
                 rng.integers(0, 4, samples) * 25.0,     # heavy ties
                 rng.random(samples) * 1e-6]
        for values in draws:
            reservoir = LatencyReservoir()
            for value in values.tolist():
                reservoir.add(value)
            assert (reservoir._stride > 1) == (samples >= 4096)
            expected = float(np.percentile(np.array(reservoir._samples), q))
            assert reservoir.percentile(q).hex() == expected.hex()

    def test_percentile_on_random_reservoirs(self):
        rng = np.random.default_rng(2025)
        for _ in range(200):
            reservoir = LatencyReservoir(
                capacity=int(rng.integers(2, 600)))
            for value in rng.gamma(2.0, 30.0,
                                   int(rng.integers(1, 3000))).tolist():
                reservoir.add(value)
            for q in (*rng.uniform(0, 100, 4).tolist(), 0, 100):
                expected = float(np.percentile(
                    np.array(reservoir._samples), q))
                assert reservoir.percentile(q).hex() == expected.hex()

    def test_validation(self):
        with pytest.raises(ConfigError):
            LatencyReservoir(capacity=1)
        reservoir = LatencyReservoir()
        with pytest.raises(ConfigError):
            reservoir.add(-1.0)
        with pytest.raises(ConfigError):
            reservoir.percentile(101)


class TestFTLLatencyAccounting:
    def test_flash_reads_recorded(self, make_chip, ftl_config):
        ftl = PageMappedFTL.for_chip(make_chip(variation_sigma=0.0),
                                     ftl_config)
        ftl.write(0, b"data")
        ftl.flush()
        for _ in range(10):
            ftl.read(0)
        assert ftl.stats.read_latency.count == 10
        assert ftl.stats.read_latency.mean > 0

    def test_buffer_hits_not_charged_flash_latency(self, make_chip,
                                                   ftl_config):
        ftl = PageMappedFTL.for_chip(make_chip(variation_sigma=0.0),
                                     ftl_config)
        ftl.write(0, b"data")  # stays buffered
        ftl.read(0)
        assert ftl.stats.read_latency.count == 0

    def test_read_range_records_one_sample(self, make_chip, ftl_config):
        ftl = PageMappedFTL.for_chip(make_chip(variation_sigma=0.0),
                                     ftl_config)
        for lba in range(8):
            ftl.write(lba, b"x")
        ftl.flush()
        ftl.read_range(0, 8)
        assert ftl.stats.read_latency.count == 1

    def test_worn_pages_inflate_latency(self, make_chip, policy,
                                        fast_model, ftl_config):
        ftl = PageMappedFTL.for_chip(make_chip(variation_sigma=0.0),
                                     ftl_config)
        for lba in range(16):
            ftl.write(lba, b"x")
        ftl.flush()
        for _ in range(20):
            ftl.read(0)
        fresh_mean = ftl.stats.read_latency.mean
        # Age the written blocks close to the L0 limit: retries ramp.
        from tests.ssd.test_scrub import _age_written_blocks
        limit = int(policy.pec_limits(fast_model)[0])
        _age_written_blocks(ftl.chip, limit - 1)
        worn = PageMappedFTL.remount(ftl.chip, ftl.n_lbas, ftl.config)
        worn.chip.inject_errors = False  # isolate the latency effect
        for _ in range(20):
            worn.read(0)
        assert worn.stats.read_latency.mean > fresh_mean

    def test_snapshot_contains_latency_fields(self, make_chip, ftl_config):
        ftl = PageMappedFTL.for_chip(make_chip(variation_sigma=0.0),
                                     ftl_config)
        ftl.write(0, b"x")
        ftl.flush()
        ftl.read(0)
        snapshot = ftl.stats.snapshot()
        assert snapshot["read_latency_mean_us"] > 0
        assert "read_latency_p99_us" in snapshot

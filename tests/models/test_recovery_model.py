"""Unit tests for the §4.3 recovery-traffic model."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.flash.geometry import FlashGeometry
from repro.models.recovery import (
    RecoveryModel,
    total_failed_capacity_fraction,
)
from repro.sim.fleet import FleetConfig, simulate_fleet


class TestAnalyticBound:
    def test_shrink_equals_baseline(self):
        # §4.3: "the same total number of LBAs fail over time".
        assert total_failed_capacity_fraction(regen_max_level=0) == 1.0

    def test_regen_l1_adds_three_quarters(self):
        assert total_failed_capacity_fraction(regen_max_level=1) == \
            pytest.approx(1.75)

    def test_regen_l2_adds_half_more(self):
        assert total_failed_capacity_fraction(regen_max_level=2) == \
            pytest.approx(2.25)

    def test_validation(self):
        with pytest.raises(ConfigError):
            total_failed_capacity_fraction(regen_max_level=4)
        with pytest.raises(ConfigError):
            total_failed_capacity_fraction(opages_per_fpage=0)


class TestTrafficModel:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RecoveryModel(utilization=0.0)
        with pytest.raises(ConfigError):
            RecoveryModel(read_write_cost=0.0)


class TestFleetIntegration:
    @pytest.fixture(scope="class")
    def results(self):
        config = FleetConfig(
            devices=12, geometry=FlashGeometry(blocks=64, fpages_per_block=32),
            pec_limit_l0=300, afr=0.0, horizon_days=1200, step_days=20)
        return {mode: simulate_fleet(config, mode, seed=5)
                for mode in ("baseline", "shrink", "regen")}

    def test_totals_comparable_without_regen(self, results):
        model = RecoveryModel()
        base = model.traffic_series(results["baseline"]).sum()
        shrink = model.traffic_series(results["shrink"]).sum()
        assert shrink == pytest.approx(base, rel=0.05)

    def test_salamander_peak_much_lower(self, results):
        model = RecoveryModel()
        assert (model.peak_step_traffic(results["shrink"])
                < model.peak_step_traffic(results["baseline"]))

    def test_cumulative_is_monotone(self, results):
        model = RecoveryModel()
        cumulative = np.cumsum(model.traffic_series(results["shrink"]))
        assert np.all(np.diff(cumulative) >= 0)

"""Unit tests for the vectorised fleet simulator."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.flash.geometry import FlashGeometry
from repro.sim.fleet import MODES, FleetConfig, FleetResult, simulate_fleet


@pytest.fixture(scope="module")
def quick_config():
    return FleetConfig(devices=16,
                       geometry=FlashGeometry(blocks=64, fpages_per_block=32),
                       pec_limit_l0=300, dwpd=1.0, afr=0.0,
                       horizon_days=1200, step_days=20)


@pytest.fixture(scope="module")
def results(quick_config):
    return {mode: simulate_fleet(quick_config, mode, seed=7)
            for mode in MODES}


class TestShapes:
    def test_series_lengths_match(self, results):
        for result in results.values():
            steps = result.days.size
            assert result.functioning.size == steps
            assert result.capacity_bytes.size == steps
            assert result.capacity_lost_bytes.size == steps

    def test_functioning_counts_monotone_without_revival(self, results):
        for result in results.values():
            assert np.all(np.diff(result.functioning) <= 0)

    def test_all_devices_eventually_die(self, results):
        for mode, result in results.items():
            assert result.functioning[-1] == 0, mode
            assert np.all(np.isfinite(result.death_day))

    def test_capacity_lost_sums_to_initial(self, results):
        for result in results.values():
            assert result.capacity_lost_bytes.sum() == pytest.approx(
                result.initial_capacity_bytes)


class TestPaperOrdering:
    def test_lifetime_ordering(self, results):
        lives = {mode: results[mode].mean_lifetime_days() for mode in MODES}
        assert lives["baseline"] < lives["cvss"]
        assert lives["cvss"] <= lives["shrink"]
        assert lives["shrink"] < lives["regen"]

    def test_salamander_flattens_capacity_decline(self, results):
        # Fig. 3b: at the baseline's mean death day, Salamander fleets
        # retain much more capacity.
        day = results["baseline"].mean_lifetime_days()
        base = results["baseline"].capacity_fraction_at(day)
        shrink = results["shrink"].capacity_fraction_at(day)
        regen = results["regen"].capacity_fraction_at(day)
        assert shrink > base
        assert regen >= shrink

    def test_baseline_loses_capacity_in_whole_devices(self, results):
        result = results["baseline"]
        per_device = result.initial_capacity_bytes / 16
        drops = result.capacity_lost_bytes[result.capacity_lost_bytes > 0]
        # Every baseline loss step is an integer number of whole devices,
        # and there are at most as many loss steps as devices.
        ratios = drops / per_device
        assert np.allclose(ratios, np.round(ratios))
        assert np.all(ratios >= 1.0)
        assert drops.size <= 16

    def test_shrink_loses_capacity_gradually(self, results):
        # Fig. 3b's point: Salamander sheds capacity in many small steps
        # (minidisk slivers), the baseline in few device-sized bursts.
        base_drops = results["baseline"].capacity_lost_bytes
        shrink_drops = results["shrink"].capacity_lost_bytes
        assert (np.count_nonzero(shrink_drops)
                > np.count_nonzero(base_drops))
        per_device = results["shrink"].initial_capacity_bytes / 16
        assert shrink_drops[shrink_drops > 0].min() < per_device


class TestDeterminismAndKnobs:
    def test_same_seed_same_result(self, quick_config):
        a = simulate_fleet(quick_config, "shrink", seed=3)
        b = simulate_fleet(quick_config, "shrink", seed=3)
        assert np.array_equal(a.capacity_bytes, b.capacity_bytes)

    def test_afr_kills_devices_early(self, quick_config):
        from dataclasses import replace
        with_afr = replace(quick_config, afr=0.2)
        calm = simulate_fleet(quick_config, "regen", seed=3)
        noisy = simulate_fleet(with_afr, "regen", seed=3)
        assert noisy.mean_lifetime_days() < calm.mean_lifetime_days()

    def test_higher_dwpd_wears_faster(self, quick_config):
        from dataclasses import replace
        heavy = replace(quick_config, dwpd=3.0)
        light = simulate_fleet(quick_config, "baseline", seed=3)
        hard = simulate_fleet(heavy, "baseline", seed=3)
        assert hard.mean_lifetime_days() < light.mean_lifetime_days()

    def test_cvss_utilization_bound(self, quick_config):
        from dataclasses import replace
        tight = replace(quick_config, host_utilization=0.9)
        loose = replace(quick_config, host_utilization=0.3)
        a = simulate_fleet(tight, "cvss", seed=3)
        b = simulate_fleet(loose, "cvss", seed=3)
        assert b.mean_lifetime_days() > a.mean_lifetime_days()

    def test_regen_max_level_2_lives_longer(self, quick_config):
        from dataclasses import replace
        l2 = replace(quick_config, regen_max_level=2)
        a = simulate_fleet(quick_config, "regen", seed=3)
        b = simulate_fleet(l2, "regen", seed=3)
        assert b.mean_lifetime_days() >= a.mean_lifetime_days()

    def test_unknown_mode_rejected(self, quick_config):
        with pytest.raises(ConfigError):
            simulate_fleet(quick_config, "magic", seed=0)

    def test_survivors_at_and_fraction_helpers(self, results):
        result = results["baseline"]
        assert result.survivors_at(0) == 16
        assert result.survivors_at(1e9) == 0
        assert 0.0 <= result.capacity_fraction_at(600) <= 1.0

    def test_before_the_first_sample_the_whole_fleet_is_deployed(
            self, quick_config):
        """Samples are post-step: an AFR death in step 1 must not leak
        back to day 0."""
        from dataclasses import replace
        deadly = replace(quick_config, afr=0.99)
        result = simulate_fleet(deadly, "shrink", seed=8)
        assert result.functioning[0] < deadly.devices     # step-1 deaths
        assert result.survivors_at(0) == deadly.devices
        assert result.survivors_at(deadly.step_days - 1) == deadly.devices
        assert result.capacity_fraction_at(0) == 1.0
        assert result.survivors_at(deadly.step_days) == result.functioning[0]
        assert result.capacity_fraction_at(deadly.step_days) < 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FleetConfig(devices=0)
        with pytest.raises(ConfigError):
            FleetConfig(cvss_rule="median")
        with pytest.raises(ConfigError):
            FleetConfig(host_utilization=0.0)

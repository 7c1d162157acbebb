"""Unit tests for the single-device lifetime harness.

The harness draws its addresses a block of writes at a time and rewinds
the caller's generator to the exact per-write position whenever a block
is cut short. ``TestBlockDraws`` pins what that rests on — numpy's array
``integers`` is the same bounds drawn one by one — and holds the walk
equal to ``scalar_walk``, its loop as it drew before blocks, through
census changes, mid-block exits, a raising write and a generator carried
across two calls.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ReproError
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.sim import lifetime
from repro.sim.lifetime import LifetimeResult, run_write_lifetime
from repro.ssd.device import BaselineSSD, SSDConfig
from repro.ssd.ftl import FTLConfig
from repro.workloads.generators import stamp_payload

BLOCK = lifetime._DRAW_BLOCK


class TestHarness:
    def test_baseline_runs_to_death(self, make_baseline):
        result = run_write_lifetime(make_baseline(seed=1), seed=0)
        assert result.host_writes > 0
        assert result.death_cause in ("DeviceBrickedError", "OutOfSpaceError")
        assert result.stats["host_writes"] == result.host_writes
        assert result.mean_pec_at_death > 0

    def test_salamander_stops_at_capacity_floor(self, make_salamander):
        result = run_write_lifetime(make_salamander(mode="shrink", seed=1),
                                    capacity_floor_fraction=0.5, seed=0)
        assert result.death_cause in ("capacity-floor", "DeviceBrickedError")
        if result.death_cause == "capacity-floor":
            assert result.capacity_fraction < 0.5

    def test_capacity_curve_is_monotone_for_shrink(self, make_salamander):
        result = run_write_lifetime(make_salamander(mode="shrink", seed=1),
                                    sample_every=200, seed=0)
        capacities = [c for _, c in result.capacity_curve]
        assert capacities[0] == result.initial_capacity_lbas
        assert all(a >= b for a, b in zip(capacities, capacities[1:]))

    def test_max_writes_cap(self, make_baseline):
        result = run_write_lifetime(make_baseline(seed=1), max_writes=100,
                                    seed=0)
        assert result.host_writes == 100
        assert result.death_cause == "max-writes"

    def test_deterministic_given_seed(self, make_baseline):
        a = run_write_lifetime(make_baseline(seed=1), seed=7)
        b = run_write_lifetime(make_baseline(seed=1), seed=7)
        assert a.host_writes == b.host_writes
        assert a.death_cause == b.death_cause

    def test_capacity_fraction_property(self):
        result = LifetimeResult(
            host_writes=10, death_cause="x",
            initial_capacity_lbas=100, final_capacity_lbas=40)
        assert result.capacity_fraction == pytest.approx(0.4)

    def test_lower_utilization_extends_all_devices(self, make_baseline,
                                                   make_salamander):
        for factory in (lambda: make_baseline(seed=1),
                        lambda: make_salamander(mode="shrink", seed=1)):
            high = run_write_lifetime(factory(), utilization=0.75, seed=0)
            low = run_write_lifetime(factory(), utilization=0.45, seed=0)
            assert low.host_writes > high.host_writes


def scalar_walk(device, rng, *, utilization=0.75,
                capacity_floor_fraction=0.2, max_writes=5_000_000):
    """``run_write_lifetime``'s loop as it drew before blocks — per
    Salamander write ``integers(0, len(active))`` then ``integers(0,
    hot)``, per flat write one ``integers(0, hot)`` — without the
    sampling; returns ``(host_writes, death_cause)``."""
    floor = capacity_floor_fraction * device.capacity_lbas
    writes = 0
    while writes < max_writes:
        capacity = device.capacity_lbas
        if capacity < floor or capacity == 0:
            return writes, "capacity-floor"
        try:
            if isinstance(device, SalamanderSSD):
                active = device.active_minidisks()
                mdisk = active[int(rng.integers(0, len(active)))]
                hot = max(1, int(utilization * mdisk.size_lbas))
                lba = int(rng.integers(0, hot))
                device.write(mdisk.mdisk_id, lba,
                             stamp_payload(mdisk.flat_base + lba, writes))
            else:
                lba = int(rng.integers(0, max(1, int(utilization * capacity))))
                device.write(lba, stamp_payload(lba, writes))
        except ReproError as error:
            return writes, type(error).__name__
        writes += 1
    return writes, "max-writes"


def device_state(device) -> tuple:
    return (device.stats.snapshot(), list(device._l2p),
            list(getattr(device, "events", ())), device.capacity_lbas)


def fresh_regens() -> SalamanderSSD:
    """A RegenS device on default-endurance flash: no minidisk comes or
    goes within a few thousand writes."""
    chip = FlashChip(FlashGeometry(blocks=32, fpages_per_block=8), seed=23,
                     variation_sigma=0.2)
    return SalamanderSSD(chip, SalamanderConfig(
        mode="regen", msize_lbas=32, headroom_fraction=0.25,
        ftl=FTLConfig(overprovision=0.25, buffer_opages=8)))


bound = st.one_of(st.just(1), st.integers(1, 1000),
                  st.integers(2**32 - 2, 2**33))


class TestBlockDraws:
    @settings(max_examples=200, deadline=None)
    @given(bounds=st.lists(bound, min_size=1, max_size=70),
           seed=st.integers(0, 2**32 - 1))
    def test_array_draw_is_the_scalar_draws(self, bounds, seed):
        by_array, one_by_one = (np.random.default_rng(seed) for _ in "ab")
        drawn = by_array.integers(0, np.array(bounds)).tolist()
        assert drawn == [int(one_by_one.integers(0, b)) for b in bounds]
        assert (by_array.bit_generator.state
                == one_by_one.bit_generator.state)

    @pytest.mark.parametrize("flavour", ["baseline", "cvss", "shrink",
                                         "regen"])
    def test_walk_to_death_equals_the_scalar_walk(self, flavour,
                                                  make_baseline, make_cvss,
                                                  make_salamander):
        """Census and capacity changes cut blocks short all through."""
        def build():
            if flavour == "baseline":
                return make_baseline(seed=1)
            if flavour == "cvss":
                return make_cvss(seed=1)
            return make_salamander(mode=flavour, seed=1)

        walked, reference = build(), build()
        rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
        result = run_write_lifetime(walked, seed=rng)
        assert (result.host_writes, result.death_cause) == scalar_walk(
            reference, oracle_rng)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert device_state(walked) == device_state(reference)

    @pytest.mark.parametrize("max_writes", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                            3 * BLOCK + 7])
    def test_a_run_ending_mid_block_rewinds(self, max_writes):
        device = fresh_regens()
        active, hot = len(device.active_minidisks()), int(0.75 * 32)
        rng, expected = np.random.default_rng(9), np.random.default_rng(9)
        result = run_write_lifetime(device, max_writes=max_writes, seed=rng)
        assert result.host_writes == max_writes and not device.events
        for _ in range(max_writes):
            expected.integers(0, active)
            expected.integers(0, hot)
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_a_write_raising_anything_leaves_the_generator_exact(self):
        """Write ``k`` draws its address, then raises a non-``ReproError``
        out of the walk: the generator holds exactly ``k + 1`` draws."""
        k = BLOCK + 100

        class Failing(BaselineSSD):
            calls = 0

            def write(self, lba, data, stream=0):
                if self.calls == k:
                    raise RuntimeError("write refused")
                self.calls += 1
                super().write(lba, data, stream)

        chip = FlashChip(FlashGeometry(blocks=32, fpages_per_block=8),
                         seed=3)
        device = Failing(chip, SSDConfig(ftl=FTLConfig(overprovision=0.25)))
        hot = int(0.75 * device.capacity_lbas)
        rng, expected = np.random.default_rng(4), np.random.default_rng(4)
        with pytest.raises(RuntimeError, match="write refused"):
            run_write_lifetime(device, seed=rng)
        expected.integers(0, np.full(k + 1, hot))
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_two_calls_on_one_generator_are_one_scalar_walk(
            self, make_salamander):
        """As ``salamander_lifetime_micro`` warms then times a device:
        each call leaves the generator where the next one must start,
        with minidisks decommissioned and regenerated in both."""
        walked, reference = (make_salamander(mode="regen", seed=1)
                             for _ in "ab")
        rng, oracle_rng = np.random.default_rng(6), np.random.default_rng(6)
        first = run_write_lifetime(walked, max_writes=9000, seed=rng)
        assert (first.host_writes, first.death_cause) == scalar_walk(
            reference, oracle_rng, max_writes=9000)
        split = len(walked.events)
        second = run_write_lifetime(walked, seed=rng)
        assert (second.host_writes, second.death_cause) == scalar_walk(
            reference, oracle_rng)
        for events in (walked.events[:split], walked.events[split:]):
            assert {"MinidiskDecommissioned", "MinidiskRegenerated"} <= {
                type(event).__name__ for event in events}
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert device_state(walked) == device_state(reference)

    def test_the_chip_generator_is_refused(self, make_baseline):
        """Blocks draw ahead of the writes, so a stream shared with the
        chip (which draws inside them) would be reordered."""
        device = make_baseline(seed=1)
        before = device.chip.rng.bit_generator.state
        with pytest.raises(ConfigError, match="chip's generator"):
            run_write_lifetime(device, seed=device.chip.rng)
        assert device.chip.rng.bit_generator.state == before
        assert device.stats.host_writes == 0

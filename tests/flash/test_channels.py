"""Tests for channel-parallel time accounting."""

import pytest

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry


def scan_all(chip: FlashChip) -> None:
    for fpage in range(chip.geometry.total_fpages):
        capacity = chip.policy.data_opages(chip.level(fpage))
        chip.program(fpage, [b"x"] * capacity)
    for fpage in range(chip.geometry.total_fpages):
        chip.read(fpage)


class TestChannels:
    def test_single_channel_makespan_equals_busy(self):
        geometry = FlashGeometry(blocks=8, fpages_per_block=4, channels=1)
        chip = FlashChip(geometry, seed=1, variation_sigma=0.0,
                         inject_errors=False)
        scan_all(chip)
        assert chip.makespan_us() == pytest.approx(chip.stats.busy_us)

    def test_four_channels_near_4x_speedup(self):
        geometry = FlashGeometry(blocks=8, fpages_per_block=4, channels=4)
        chip = FlashChip(geometry, seed=1, variation_sigma=0.0,
                         inject_errors=False)
        scan_all(chip)
        # Blocks stripe evenly over channels, so the makespan is ~1/4 of
        # the serial time.
        assert chip.makespan_us() == pytest.approx(
            chip.stats.busy_us / 4, rel=1e-6)

    def test_blocks_stripe_round_robin(self):
        geometry = FlashGeometry(blocks=8, channels=4)
        chip = FlashChip(geometry, seed=1)
        assert chip.channel_of_block(0) == 0
        assert chip.channel_of_block(5) == 1
        assert chip.channel_of_block(7) == 3

    def test_skewed_traffic_limits_parallelism(self):
        geometry = FlashGeometry(blocks=8, fpages_per_block=4, channels=4)
        chip = FlashChip(geometry, seed=1, variation_sigma=0.0,
                         inject_errors=False)
        # Hammer a single block: everything serialises on one channel.
        chip.program(0, [b"x"] * 4)
        for _ in range(50):
            chip.read(0)
        assert chip.makespan_us() == pytest.approx(chip.stats.busy_us)

    def test_erases_charged_to_block_channel(self):
        geometry = FlashGeometry(blocks=8, fpages_per_block=4, channels=4)
        chip = FlashChip(geometry, seed=1, variation_sigma=0.0)
        chip.erase(1)  # channel 1
        assert chip.channel_busy_us[1] > 0
        assert chip.channel_busy_us[0] == 0

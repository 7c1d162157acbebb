"""Tests for retention-error modelling and scrub-driven data refresh."""

from types import SimpleNamespace

import pytest

from repro.errors import ConfigError, UncorrectableError
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.units import DAY


@pytest.fixture
def clocked_chip(tiny_geometry):
    clock = SimpleNamespace(now=0.0)
    chip = FlashChip(tiny_geometry, seed=1, variation_sigma=0.0,
                     retention_rber_per_day=2e-4,
                     now_fn=lambda: clock.now)
    return chip, clock


class TestRetention:
    def test_fresh_data_unaffected(self, clocked_chip):
        chip, clock = clocked_chip
        chip.program(0, [b"a"] * 4)
        assert chip.rber_of(0) == pytest.approx(0.0)
        assert chip.data_age_days(0) == 0.0

    def test_rber_grows_with_data_age(self, clocked_chip):
        chip, clock = clocked_chip
        chip.program(0, [b"a"] * 4)
        clock.now += 10 * DAY
        assert chip.data_age_days(0) == pytest.approx(10.0)
        assert chip.rber_of(0) == pytest.approx(10 * 2e-4)

    def test_cold_data_eventually_unreadable(self, clocked_chip):
        chip, clock = clocked_chip
        chip.program(0, [b"a"] * 4)
        clock.now += 200 * DAY  # RBER 0.04 >> L0 capability ~4.7e-3
        with pytest.raises(UncorrectableError):
            for _ in range(30):
                chip.read(0, 0)

    def test_required_level_sees_retention(self, clocked_chip):
        chip, clock = clocked_chip
        chip.program(0, [b"a"] * 4)
        assert chip.required_level(0) == 0
        clock.now += 40 * DAY  # RBER 8e-3: past L0, within L1
        assert chip.required_level(0) >= 1
        assert chip.is_overworn(0)

    def test_rewrite_resets_the_clock(self, clocked_chip):
        chip, clock = clocked_chip
        chip.program(0, [b"a"] * 4)
        clock.now += 50 * DAY
        chip.erase(0)
        chip.program(0, [b"b"] * 4)
        assert chip.data_age_days(0) == 0.0
        assert chip.rber_of(0) == pytest.approx(0.0)

    def test_free_pages_have_no_retention(self, clocked_chip):
        chip, clock = clocked_chip
        clock.now += 100 * DAY
        assert chip.rber_of(0) == pytest.approx(0.0)

    def test_requires_time_source(self, tiny_geometry):
        with pytest.raises(ConfigError):
            FlashChip(tiny_geometry, retention_rber_per_day=1e-5)
        with pytest.raises(ConfigError):
            FlashChip(tiny_geometry, retention_rber_per_day=-1e-5,
                      now_fn=lambda: 0.0)


class TestScrubRefresh:
    def test_scrubber_refreshes_cold_data(self, tiny_geometry, ftl_config):
        from repro.ssd.ftl import PageMappedFTL

        clock = SimpleNamespace(now=0.0)
        chip = FlashChip(tiny_geometry, seed=1, variation_sigma=0.0,
                         retention_rber_per_day=2e-4,
                         now_fn=lambda: clock.now)
        ftl = PageMappedFTL.for_chip(chip, ftl_config)
        for lba in range(24):
            ftl.write(lba, f"cold-{lba}".encode())
        ftl.flush()
        # Data sits cold just past the L0 retention budget — still readable
        # (uncorrectable sets in sharply around ~1.3x capability) but
        # flagged overworn — and a scrub sweep rewrites it in time.
        clock.now += 26 * DAY
        moved = ftl.scrub()
        assert moved >= 24
        for lba in range(24):
            assert ftl.read(lba).rstrip(b"\0") == f"cold-{lba}".encode()
        # Another cold spell is now survivable too (clock was reset).
        clock.now += 26 * DAY
        ftl.scrub()
        for lba in range(24):
            assert ftl.read(lba).rstrip(b"\0") == f"cold-{lba}".encode()

    def test_without_scrub_cold_data_dies(self, tiny_geometry, ftl_config):
        from repro.ssd.ftl import PageMappedFTL

        clock = SimpleNamespace(now=0.0)
        chip = FlashChip(tiny_geometry, seed=1, variation_sigma=0.0,
                         retention_rber_per_day=2e-4,
                         now_fn=lambda: clock.now)
        ftl = PageMappedFTL.for_chip(chip, ftl_config)
        ftl.write(0, b"cold")
        ftl.flush()
        clock.now += 200 * DAY
        with pytest.raises(UncorrectableError):
            for _ in range(30):
                ftl.read(0)

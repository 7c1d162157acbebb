"""Tests for the proactive scrubber and read-disturb modelling."""

import numpy as np
import pytest

from repro.errors import ConfigError, UncorrectableError
from repro.flash.chip import FlashChip, PageState
from repro.flash.geometry import FlashGeometry
from repro.ssd.ftl import FTLConfig, PageMappedFTL


def worn_ftl(make_chip, pec_past_limit: int = 2):
    """An FTL whose block 0 holds data on pages near their wear limit."""
    chip = make_chip(seed=3, variation_sigma=0.0)
    ftl = PageMappedFTL.for_chip(chip, FTLConfig(
        overprovision=0.25, buffer_opages=8))
    return chip, ftl


def _age_written_blocks(chip, pec: int) -> None:
    """Set PEC of every block holding written pages (test backdoor).

    A written page's read cost is remembered on the premise that its
    wear cannot move under its data; this helper is the one thing that
    moves it, so it drops those costs the way ``erase`` does.
    """
    states = chip.state_array()
    for block in range(chip.geometry.blocks):
        pages = list(chip.geometry.fpage_range_of_block(block))
        if any(states[p] == 1 for p in pages):  # WRITTEN code
            chip._block_pec[block] = pec
            chip._forget_read_costs(pages)


class TestAgingBackdoor:
    """``_age_written_blocks`` moves wear under written pages, which no
    chip operation can: it owes the chip the drop ``erase`` would do."""

    def _read_device(self, make_chip):
        chip, ftl = worn_ftl(make_chip)
        for lba in range(16):
            ftl.write(lba, b"x")
        ftl.flush()
        ftl.read_range(0, 16)
        ftl.read(3)
        assert chip._read_costs
        ftl._audit_fastpath()
        return chip, ftl

    def test_aged_pages_are_costed_afresh(self, make_chip):
        chip, ftl = self._read_device(make_chip)
        before = ftl.stats.read_latency.total
        _age_written_blocks(chip, 20)
        assert not chip._read_costs
        ftl._audit_fastpath()
        chip.inject_errors = False
        ftl.read_range(0, 16)
        ftl.read(3)
        assert ftl.stats.read_latency.total - before > before

    def test_the_audit_fails_if_the_costs_are_left(self, make_chip,
                                                   monkeypatch):
        chip, ftl = self._read_device(make_chip)
        monkeypatch.setattr(chip, "_forget_read_costs", lambda fpages: None)
        _age_written_blocks(chip, 20)
        with pytest.raises(AssertionError, match="stale read cost"):
            ftl._audit_fastpath()


class TestScrub:
    def test_scrub_clean_device_is_noop(self, make_chip):
        chip, ftl = worn_ftl(make_chip)
        for lba in range(32):
            ftl.write(lba, b"x")
        ftl.flush()
        assert ftl.scrub() == 0
        assert ftl.stats.wear_relocations == 0

    def test_scrub_relocates_overworn_written_pages(self, make_chip,
                                                    policy, fast_model):
        chip = make_chip(seed=3, variation_sigma=0.0)
        ftl = PageMappedFTL.for_chip(chip, FTLConfig(
            overprovision=0.25, buffer_opages=8))
        for lba in range(8):
            ftl.write(lba, f"keep-{lba}".encode())
        ftl.flush()
        # Age the data-holding blocks past the L0 limit while preserving
        # the mapping (as if the data had been written at end of life);
        # free blocks stay fresh so the scrubber has somewhere to go.
        limit = int(policy.pec_limits(fast_model)[0])
        _age_written_blocks(chip, limit + 1)
        assert any(chip.is_overworn(f)
                   for f in range(chip.geometry.total_fpages)
                   if chip.state(f) is PageState.WRITTEN)
        moved = ftl.scrub()
        assert moved >= 8
        assert ftl.stats.wear_relocations == moved
        # All data must now live on pages that are not overworn...
        for lba in range(8):
            slot = int(ftl._l2p[lba])
            fpage = slot // chip.geometry.opages_per_fpage
            assert not chip.is_overworn(fpage)
            assert ftl.read(lba).rstrip(b"\0") == f"keep-{lba}".encode()

    def test_scrub_budget_and_rolling_cursor(self, make_chip, policy,
                                             fast_model):
        chip = make_chip(seed=3, variation_sigma=0.0)
        ftl = PageMappedFTL.for_chip(chip, FTLConfig(
            overprovision=0.25, buffer_opages=8))
        for lba in range(64):
            ftl.write(lba, b"d")
        ftl.flush()
        _age_written_blocks(chip, int(policy.pec_limits(fast_model)[0]) + 1)
        total = chip.geometry.total_fpages
        first = ftl.scrub(max_fpages=total // 2)
        second = ftl.scrub(max_fpages=total // 2)
        # Two half-device sweeps cover everything once.
        assert first + second >= 64

    def test_autoscrub_runs_during_writes(self, make_chip):
        chip = make_chip(seed=3, variation_sigma=0.0)
        ftl = PageMappedFTL.for_chip(chip, FTLConfig(
            overprovision=0.25, buffer_opages=8,
            scrub_interval_writes=16, scrub_batch_fpages=32))
        rng = np.random.default_rng(0)
        for i in range(4 * ftl.n_lbas):
            ftl.write(int(rng.integers(0, ftl.n_lbas // 2)), b"x")
        # No overworn pages at this low wear, but the machinery must have
        # cycled without disturbing correctness.
        assert ftl.stats.host_writes == 4 * ftl.n_lbas

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FTLConfig(scrub_interval_writes=-1)
        with pytest.raises(ConfigError):
            FTLConfig(scrub_batch_fpages=0)


class TestStreamSeparation:
    def test_streams_use_distinct_open_blocks(self, make_chip):
        chip = make_chip(seed=3, variation_sigma=0.0)
        ftl = PageMappedFTL.for_chip(chip, FTLConfig(
            overprovision=0.25, buffer_opages=8, stream_separation=True))
        rng = np.random.default_rng(0)
        for i in range(4 * ftl.n_lbas):
            ftl.write(int(rng.integers(0, ftl.n_lbas // 2)), b"x")
        host = ftl._open["host0"]
        gc = ftl._open["gc"]
        if host is not None and gc is not None:
            assert host[0] != gc[0]

    def test_separation_off_shares_one_block(self, make_chip):
        chip = make_chip(seed=3, variation_sigma=0.0)
        ftl = PageMappedFTL.for_chip(chip, FTLConfig(
            overprovision=0.25, buffer_opages=8, stream_separation=False))
        rng = np.random.default_rng(0)
        for i in range(4 * ftl.n_lbas):
            ftl.write(int(rng.integers(0, ftl.n_lbas // 2)), b"x")
        assert ftl._open["gc"] is None  # gc stream aliases host

    def test_separation_does_not_break_integrity(self, make_chip):
        from repro.workloads.generators import stamp_payload
        for separated in (True, False):
            chip = make_chip(seed=3, variation_sigma=0.0)
            ftl = PageMappedFTL.for_chip(chip, FTLConfig(
                overprovision=0.25, buffer_opages=8,
                stream_separation=separated))
            rng = np.random.default_rng(1)
            latest = {}
            for i in range(5 * ftl.n_lbas):
                lba = int(rng.integers(0, ftl.n_lbas // 2))
                payload = stamp_payload(lba, i)
                ftl.write(lba, payload)
                latest[lba] = payload
            for lba, payload in latest.items():
                assert ftl.read(lba).rstrip(b"\0") == payload


class TestReadDisturb:
    def test_disabled_by_default(self, tiny_geometry):
        chip = FlashChip(tiny_geometry, seed=1, variation_sigma=0.0)
        chip.program(0, [b"a", b"b", b"c", b"d"])
        before = chip.rber_of(0)
        for _ in range(100):
            chip.read(0, 0)
        assert chip.rber_of(0) == before
        assert chip.reads_since_erase(0) == 0

    def test_reads_raise_rber_blockwide(self, tiny_geometry):
        chip = FlashChip(tiny_geometry, seed=1, variation_sigma=0.0,
                         read_disturb_rber=1e-7)
        chip.program(0, [b"a"] * 4)
        chip.program(1, [b"b"] * 4)  # same block as fpage 0
        before = chip.rber_of(1)
        for _ in range(50):
            chip.read(0, 0)
        assert chip.reads_since_erase(1) == 50  # neighbour disturbed
        assert chip.rber_of(1) == pytest.approx(before + 50 * 1e-7)

    def test_erase_resets_disturb(self, tiny_geometry):
        chip = FlashChip(tiny_geometry, seed=1, variation_sigma=0.0,
                         read_disturb_rber=1e-7)
        chip.program(0, [b"a"] * 4)
        for _ in range(10):
            chip.read(0, 0)
        chip.erase(0)
        assert chip.reads_since_erase(0) == 0

    def test_heavy_reads_eventually_uncorrectable(self, tiny_geometry):
        chip = FlashChip(tiny_geometry, seed=1, variation_sigma=0.0,
                         read_disturb_rber=5e-4)
        chip.program(0, [b"a"] * 4)
        with pytest.raises(UncorrectableError):
            for _ in range(500):
                chip.read(0, 0)

    def test_negative_coefficient_rejected(self, tiny_geometry):
        with pytest.raises(ConfigError):
            FlashChip(tiny_geometry, read_disturb_rber=-1e-9)

"""Unit tests for the page-mapped FTL core."""

import numpy as np
import pytest

from repro.errors import ConfigError, InvalidLBAError, UncorrectableError
from repro.ssd.ftl import LOST, UNMAPPED, FTLConfig, PageMappedFTL
from repro.workloads.generators import stamp_payload


@pytest.fixture
def ftl(make_chip, ftl_config):
    chip = make_chip(seed=2, variation_sigma=0.0)
    return PageMappedFTL.for_chip(chip, ftl_config)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"overprovision": -0.1},
        {"overprovision": 1.0},
        {"gc_reserve_blocks": 0},
        {"buffer_opages": 0},
        {"max_level": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            FTLConfig(**kwargs)

    def test_max_level_must_be_below_dead(self, make_chip):
        with pytest.raises(ConfigError):
            PageMappedFTL(make_chip(), 64, FTLConfig(max_level=4))

    def test_headroom_enforced(self, make_chip):
        chip = make_chip()
        with pytest.raises(ConfigError):
            PageMappedFTL(chip, chip.geometry.total_opage_slots, FTLConfig())

    def test_for_chip_respects_overprovision(self, make_chip):
        chip = make_chip()
        ftl = PageMappedFTL.for_chip(chip, FTLConfig(overprovision=0.5))
        assert ftl.n_lbas == chip.geometry.total_opage_slots // 2


class TestReadWrite:
    def test_unwritten_reads_zeros(self, ftl):
        assert ftl.read(0) == bytes(4096)

    def test_buffered_write_is_readable(self, ftl):
        ftl.write(5, b"hello")
        assert ftl.read(5).rstrip(b"\0") == b"hello"

    def test_flushed_write_is_readable(self, ftl):
        ftl.write(5, b"hello")
        ftl.flush()
        assert len(ftl.buffer) == 0
        assert ftl.read(5).rstrip(b"\0") == b"hello"

    def test_overwrite_returns_newest(self, ftl):
        ftl.write(5, b"v1")
        ftl.flush()
        ftl.write(5, b"v2")
        ftl.flush()
        assert ftl.read(5).rstrip(b"\0") == b"v2"

    def test_many_writes_roundtrip(self, ftl):
        for lba in range(200):
            ftl.write(lba, stamp_payload(lba, 1))
        ftl.flush()
        for lba in range(200):
            assert ftl.read(lba).rstrip(b"\0") == stamp_payload(lba, 1)

    def test_lba_bounds(self, ftl):
        with pytest.raises(InvalidLBAError):
            ftl.read(ftl.n_lbas)
        with pytest.raises(InvalidLBAError):
            ftl.write(-1, b"")

    def test_oversized_write_rejected(self, ftl):
        with pytest.raises(ConfigError):
            ftl.write(0, b"x" * 4097)

    def test_capacity_bytes(self, ftl):
        assert ftl.capacity_bytes == ftl.n_lbas * 4096


class TestTrim:
    def test_trim_mapped_lba(self, ftl):
        ftl.write(3, b"data")
        ftl.flush()
        ftl.trim(3)
        assert ftl.read(3) == bytes(4096)

    def test_trim_buffered_lba(self, ftl):
        ftl.write(3, b"data")
        ftl.trim(3)
        assert ftl.read(3) == bytes(4096)
        ftl.flush()
        assert ftl.read(3) == bytes(4096)

    def test_trim_frees_live_space(self, ftl):
        for lba in range(64):
            ftl.write(lba, b"x")
        ftl.flush()
        before = ftl.live_lbas()
        for lba in range(32):
            ftl.trim(lba)
        assert ftl.live_lbas() == before - 32


class TestGarbageCollection:
    def test_sustained_overwrites_reclaim_space(self, ftl):
        # Working set near capacity, overwritten repeatedly: GC must keep up.
        rng = np.random.default_rng(0)
        hot = int(ftl.n_lbas * 0.7)
        for i in range(6 * ftl.n_lbas):
            lba = int(rng.integers(0, hot))
            ftl.write(lba, stamp_payload(lba, i))
        assert ftl.stats.erases > 0
        assert ftl.stats.gc_relocations > 0

    def test_write_amplification_reasonable(self, ftl):
        rng = np.random.default_rng(0)
        hot = int(ftl.n_lbas * 0.5)
        for i in range(6 * ftl.n_lbas):
            lba = int(rng.integers(0, hot))
            ftl.write(lba, b"")
        waf = ftl.stats.write_amplification
        assert 1.0 <= waf < 3.0

    def test_data_survives_gc(self, ftl):
        rng = np.random.default_rng(1)
        latest = {}
        for i in range(4 * ftl.n_lbas):
            lba = int(rng.integers(0, ftl.n_lbas // 2))
            payload = stamp_payload(lba, i)
            ftl.write(lba, payload)
            latest[lba] = payload
        for lba, payload in latest.items():
            assert ftl.read(lba).rstrip(b"\0") == payload

    def test_wear_leveling_keeps_erases_even(self, ftl):
        rng = np.random.default_rng(2)
        for i in range(8 * ftl.n_lbas):
            ftl.write(int(rng.integers(0, ftl.n_lbas // 2)), b"")
        counts = np.array(ftl.chip._block_pec)
        worked = counts[counts > 0]
        assert worked.size > 1
        assert counts.max() - counts.min() <= max(4, 0.5 * counts.mean())


class TestAccounting:
    def test_usable_slots_initially_all(self, ftl):
        assert ftl.usable_opage_slots() == ftl.geometry.total_opage_slots

    def test_retired_page_reduces_usable_slots(self, ftl):
        ftl.chip.retire(0)
        assert (ftl.usable_opage_slots()
                == ftl.geometry.total_opage_slots - 4)

    def test_promoted_page_reduces_usable_slots_by_level(self, ftl):
        ftl.chip.set_level(0, 1)
        assert (ftl.usable_opage_slots()
                == ftl.geometry.total_opage_slots - 1)

    def test_live_lbas_counts_buffer_and_map(self, ftl):
        ftl.write(0, b"a")
        ftl.write(1, b"b")
        assert ftl.live_lbas() == 2
        ftl.flush()
        assert ftl.live_lbas() == 2
        ftl.write(0, b"c")  # overwrite: still 2 live
        assert ftl.live_lbas() == 2


class TestMediaErrors:
    def test_lost_lba_raises_until_rewritten(self, ftl):
        ftl.write(9, b"data")
        ftl.flush()
        # Simulate a media error by forcing the mapping to LOST.
        slot = int(ftl._l2p[9])
        ftl._lose_lba(9, slot)
        with pytest.raises(UncorrectableError):
            ftl.read(9)
        ftl.write(9, b"fresh")
        assert ftl.read(9).rstrip(b"\0") == b"fresh"

    def test_lose_lba_updates_stats(self, ftl):
        ftl.write(9, b"data")
        ftl.flush()
        ftl._lose_lba(9, int(ftl._l2p[9]))
        assert ftl.stats.lost_opages == 1
        assert ftl.stats.uncorrectable_reads == 1

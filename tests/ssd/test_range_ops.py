"""Tests for range-granular trim and write."""

import pytest

from repro.errors import (
    ConfigError,
    DeviceBrickedError,
    DeviceReadOnlyError,
)
from repro.ssd.ftl import FTLConfig, PageMappedFTL
from repro.workloads.generators import stamp_payload


@pytest.fixture
def ftl(make_chip, ftl_config):
    return PageMappedFTL.for_chip(make_chip(variation_sigma=0.0),
                                  ftl_config)


class TestTrimRange:
    def test_discards_whole_range(self, ftl):
        for lba in range(16):
            ftl.write(lba, b"data")
        ftl.flush()
        ftl.trim_range(4, 8)
        for lba in range(16):
            expected = bytes(4096) if 4 <= lba < 12 else b"data".ljust(
                4096, b"\0")
            assert ftl.read(lba) == expected

    def test_covers_buffered_writes(self, ftl):
        ftl.write(0, b"buffered")
        ftl.trim_range(0, 4)
        assert ftl.read(0) == bytes(4096)
        ftl.flush()
        assert ftl.read(0) == bytes(4096)

    def test_counts_trims(self, ftl):
        ftl.trim_range(0, 10)
        assert ftl.stats.trims == 10

    def test_frees_space(self, ftl):
        for lba in range(32):
            ftl.write(lba, b"x")
        ftl.flush()
        before = ftl.live_lbas()
        ftl.trim_range(0, 32)
        assert ftl.live_lbas() == before - 32

    def test_validation(self, ftl):
        with pytest.raises(ConfigError):
            ftl.trim_range(0, 0)
        with pytest.raises(Exception):
            ftl.trim_range(ftl.n_lbas - 1, 2)


class TestWriteRange:
    def test_roundtrip(self, ftl):
        payloads = [stamp_payload(lba, 1) for lba in range(10, 26)]
        ftl.write_range(10, payloads)
        ftl.flush()
        for offset, payload in enumerate(payloads):
            assert ftl.read(10 + offset).rstrip(b"\0") == payload

    def test_sequential_batch_packs_densely(self, ftl):
        ftl.write_range(0, [b"x"] * 32)
        ftl.flush()
        # 32 consecutive LBAs -> 8 full fPages, no padding holes: a
        # subsequent range read needs exactly 8 senses.
        before = ftl.chip.stats.reads
        ftl.read_range(0, 32)
        assert ftl.chip.stats.reads - before == 8

    def test_validation(self, ftl):
        with pytest.raises(ConfigError):
            ftl.write_range(0, [])
        with pytest.raises(Exception):
            ftl.write_range(ftl.n_lbas - 1, [b"a", b"b"])


    def test_a_refused_member_raises_after_those_before_it_landed(self, ftl):
        payloads = [b"ok"] * 5 + [bytes(4097)] + [b"never"] * 3
        with pytest.raises(ConfigError, match="exceeds the 4096-byte"):
            ftl.write_range(8, payloads)
        assert ftl.stats.host_writes == 5
        assert ftl.stats.write_latency.count == 5
        assert ftl.buffer.keys() == [8, 9, 10, 11, 12]

    @pytest.mark.parametrize("flavour", ["ftl", "baseline", "cvss"])
    def test_stream_hint_covers_the_range_on_every_flat_flavour(
            self, flavour, make_chip):
        from repro.ssd.cvss import CVSSConfig, CVSSDevice
        from repro.ssd.device import BaselineSSD, SSDConfig
        config = FTLConfig(overprovision=0.25, buffer_opages=8,
                           host_streams=2)
        chip = make_chip(variation_sigma=0.0)
        device = {"ftl": lambda: PageMappedFTL.for_chip(chip, config),
                  "baseline": lambda: BaselineSSD(chip, SSDConfig(ftl=config)),
                  "cvss": lambda: CVSSDevice(chip, CVSSConfig(ftl=config)),
                  }[flavour]()
        device.write_range(0, [b"cold"] * 6, stream=1)
        assert [device._buffer_stream[lba] for lba in range(6)] == [1] * 6
        with pytest.raises(ConfigError, match="stream must be in"):
            device.write_range(8, [b"x"] * 3, stream=2)
        assert device.stats.host_writes == 6
        device._audit_fastpath()


class TestBaselineLivenessGate:
    """Every write-side call on a baseline device checks liveness."""

    def test_trim_range_is_gated_like_trim(self, make_baseline):
        # Regression: trim_range went straight to the FTL while trim
        # refused on a bricked / read-only device.
        device = make_baseline()
        device.write_range(0, [b"a", b"b", b"c"])
        device._failed = True
        with pytest.raises(DeviceBrickedError):
            device.trim(0)
        with pytest.raises(DeviceBrickedError):
            device.trim_range(0, 3)
        with pytest.raises(DeviceBrickedError):
            device.write_range(0, [b"x"])
        assert device.stats.trims == 0
        device._failed, device._read_only = False, True
        with pytest.raises(DeviceReadOnlyError):
            device.trim_range(0, 3)
        assert device.read(1).rstrip(b"\0") == b"b"

    def test_trim_range_on_a_live_device(self, make_baseline):
        device = make_baseline()
        device.write_range(0, [b"a", b"b", b"c"])
        device.trim_range(0, 2)
        assert device.read(0) == bytes(4096)
        assert device.read(2).rstrip(b"\0") == b"c"

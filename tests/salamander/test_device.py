"""Unit tests for the SalamanderSSD host interface and configuration."""

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    DeviceBrickedError,
    MinidiskDecommissionedError,
    ReproError,
)
from repro.salamander.device import (
    SalamanderConfig,
    SalamanderMode,
    SalamanderSSD,
)
from repro.salamander.events import (
    DeviceExhausted,
    MinidiskDecommissioned,
    MinidiskRegenerated,
)
from repro.ssd.ftl import FTLConfig


def wear_out(device, utilization=0.6, seed=0, max_writes=500_000):
    """Random overwrites over active minidisks until the device gives up."""
    rng = np.random.default_rng(seed)
    writes = 0
    try:
        while writes < max_writes:
            active = device.active_minidisks()
            if not active:
                break
            mdisk = active[int(rng.integers(0, len(active)))]
            hot = max(1, int(utilization * mdisk.size_lbas))
            device.write(mdisk.mdisk_id, int(rng.integers(0, hot)), b"x")
            writes += 1
    except ReproError as error:
        return writes, error
    return writes, None


class TestConfig:
    def test_mode_accepts_strings(self):
        config = SalamanderConfig(mode="regen")
        assert config.mode is SalamanderMode.REGEN

    @pytest.mark.parametrize("kwargs", [
        {"msize_lbas": 0},
        {"regen_max_level": 0},
        {"headroom_fraction": 1.0},
        {"victim_policy": "nope"},
        {"mode": "invalid"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises((ConfigError, ValueError)):
            SalamanderConfig(**kwargs)

    def test_device_too_small_rejected(self, make_chip, ftl_config):
        config = SalamanderConfig(msize_lbas=100_000, ftl=ftl_config)
        with pytest.raises(ConfigError):
            SalamanderSSD(make_chip(), config)


class TestTopology:
    def test_initial_minidisk_count_fits_headroom(self, make_salamander):
        device = make_salamander()
        total = device.geometry.total_opage_slots
        needed = device.needed_opage_slots()
        assert needed <= total
        # Adding one more mDisk would not fit.
        one_more = needed + int(device.msize_lbas * 1.25)
        assert one_more > total

    def test_advertised_matches_active_disks(self, make_salamander):
        device = make_salamander()
        n = len(device.active_minidisks())
        assert device.advertised_lbas == n * device.msize_lbas
        assert device.advertised_bytes == device.advertised_lbas * 4096

    def test_minidisk_lookup(self, make_salamander):
        device = make_salamander()
        assert device.minidisk(0).mdisk_id == 0
        with pytest.raises(ConfigError):
            device.minidisk(len(device.minidisks))


class TestHostIO:
    def test_roundtrip_per_minidisk(self, make_salamander):
        device = make_salamander()
        device.write(0, 0, b"zero")
        device.write(1, 0, b"one")
        assert device.read(0, 0).rstrip(b"\0") == b"zero"
        assert device.read(1, 0).rstrip(b"\0") == b"one"

    def test_minidisks_are_isolated_address_spaces(self, make_salamander):
        device = make_salamander()
        device.write(0, 5, b"md0")
        assert device.read(1, 5) == bytes(4096)

    def test_lba_bounds_per_minidisk(self, make_salamander):
        device = make_salamander()
        with pytest.raises(ConfigError):
            device.write(0, device.msize_lbas, b"x")

    def test_trim(self, make_salamander):
        device = make_salamander()
        device.write(0, 1, b"data")
        device.trim(0, 1)
        assert device.read(0, 1) == bytes(4096)

    def test_io_to_decommissioned_minidisk_rejected(self, make_salamander):
        device = make_salamander()
        victim = device.minidisks[0]
        device._decommission(victim, reason="test")
        with pytest.raises(MinidiskDecommissionedError):
            device.write(0, 0, b"x")
        with pytest.raises(MinidiskDecommissionedError):
            device.read(0, 0)

    def test_write_range_round_trips_within_a_minidisk(self, make_salamander):
        # Regression: the inherited flat write_range called the
        # 3-argument write with 2 and raised TypeError.
        device = make_salamander()
        payloads = [bytes([n]) * 8 for n in range(1, 7)]
        device.write_range(1, 4, payloads)
        assert device.stats.host_writes == 6
        assert device.read_range(1, 4, 6) == [
            payload.ljust(4096, b"\0") for payload in payloads]
        assert device.read(0, 4) == bytes(4096)
        device.flush()
        assert device.read(1, 9) == payloads[5].ljust(4096, b"\0")

    def test_write_range_validation(self, make_salamander):
        device = make_salamander()
        with pytest.raises(ConfigError):
            device.write_range(0, 0, [])
        with pytest.raises(ConfigError):
            device.write_range(0, device.msize_lbas - 1, [b"a", b"b"])
        with pytest.raises(ConfigError):
            device.write_range(0, -1, [b"a"])
        with pytest.raises(ConfigError):
            device.write_range(len(device.minidisks), 0, [b"a"])
        assert device.stats.host_writes == 0

    def test_write_range_takes_the_stream_hint(self, make_chip):
        device = SalamanderSSD(make_chip(variation_sigma=0.0), SalamanderConfig(
            msize_lbas=32, headroom_fraction=0.25, ftl=FTLConfig(
                overprovision=0.25, buffer_opages=8, host_streams=2)))
        device.write_range(0, 0, [b"hot"] * 16, stream=0)
        device.write_range(1, 0, [b"cold"] * 16, stream=1)
        device.write(1, 16, b"cold", stream=1)
        device.flush()
        blocks = [{int(device._l2p[mdisk * 32 + lba])
                   // device._slots_per_block for lba in range(16)}
                  for mdisk in (0, 1)]
        assert blocks[0].isdisjoint(blocks[1])
        with pytest.raises(ConfigError):
            device.write_range(0, 0, [b"x"], stream=2)

    def test_trim_range_within_a_minidisk(self, make_salamander):
        device = make_salamander()
        device.write_range(1, 0, [b"data"] * 12)
        device.flush()
        device.write_range(1, 8, [b"buffered"] * 4)
        device.trim_range(1, 2, 8)
        assert device.stats.trims == 8
        assert device.read_range(1, 0, 12) == (
            [b"data".ljust(4096, b"\0")] * 2 + [bytes(4096)] * 8
            + [b"buffered".ljust(4096, b"\0")] * 2)
        assert device.read(0, 2) == bytes(4096)
        device._audit_fastpath()

    def test_audit_catches_a_rebound_limbo_dict(self, make_salamander):
        """The allocator tests held pages against the ledger's dict in
        place; a ledger that rebinds it would leave limbo unguarded."""
        device = make_salamander()
        device._audit_fastpath()
        device.limbo._level_of = {}
        with pytest.raises(AssertionError, match="rebound"):
            device._audit_fastpath()

    def test_trim_range_is_gated_and_bounded_like_read_range(
            self, make_salamander):
        device = make_salamander()
        device.write_range(0, 0, [b"keep"] * 4)
        for lba, count in ((0, 0), (-1, 2), (device.msize_lbas - 1, 2)):
            with pytest.raises(ConfigError):
                device.trim_range(0, lba, count)
        with pytest.raises(ConfigError):
            device.trim_range(len(device.minidisks), 0, 1)
        device._decommission(device.minidisks[1], reason="test")
        with pytest.raises(MinidiskDecommissionedError):
            device.trim_range(1, 0, 4)
        assert device.stats.trims == 0
        assert device.read(0, 3) == b"keep".ljust(4096, b"\0")
        device._exhaust()
        with pytest.raises(DeviceBrickedError):
            device.trim_range(0, 0, 4)

    def test_no_write_twin_reaches_a_decommissioned_minidisk(
            self, make_salamander):
        # Regression: the inherited batch twin wrote flat LBAs straight
        # into the buffer, past the minidisk check.
        device = make_salamander()
        device._decommission(device.minidisks[0], reason="test")
        with pytest.raises(MinidiskDecommissionedError):
            device.write(0, 0, b"x")
        with pytest.raises(MinidiskDecommissionedError):
            device.write_range(0, 0, [b"x", b"y"])
        assert not hasattr(device, "write_batch")
        assert device.stats.host_writes == 0
        assert len(device.buffer) == 0

    def test_no_write_twin_reaches_an_exhausted_device(self, make_salamander):
        device = make_salamander()
        device._exhaust()
        with pytest.raises(DeviceBrickedError):
            device.write(1, 0, b"x")
        with pytest.raises(DeviceBrickedError):
            device.write_range(1, 0, [b"x", b"y"])
        assert device.stats.host_writes == 0


class TestInvalidate:
    def test_decommission_with_buffered_writes_keeps_the_counters(
            self, make_salamander):
        # Regression: the buffered entries were discarded without their
        # stream bookkeeping, which _audit_fastpath reports.
        device = make_salamander()
        for lba in range(6):
            device.write(0, lba, b"flushed")
        device.flush()
        device.write(0, 0, b"buffered-over-mapped")
        device.write(0, 20, b"buffered-only")
        device.write(1, 3, b"neighbour")
        mapped_before = device._mapped_lbas
        device._decommission(device.minidisks[0], reason="test")
        device._audit_fastpath()
        assert device._mapped_lbas == mapped_before - 6
        assert device.buffer.keys() == [device.minidisks[1].flat_lba(3)]
        assert device._live_counts() == {1: 1}
        assert device.read(1, 3).rstrip(b"\0") == b"neighbour"

    @pytest.mark.parametrize("victim_policy, counted", [
        ("youngest", False), ("oldest", False), ("emptiest", True)])
    def test_live_data_is_counted_only_for_the_policy_that_reads_it(
            self, make_chip, ftl_config, victim_policy, counted):
        device = SalamanderSSD(make_chip(), SalamanderConfig(
            msize_lbas=32, headroom_fraction=0.25,
            victim_policy=victim_policy, ftl=ftl_config))
        calls = []
        live_counts = device._live_counts
        device._live_counts = lambda: calls.append(1) or live_counts()
        # Take usable space away until Eq. 2 sheds a minidisk.
        before = len(device.active_minidisks())
        fpage = 0
        while len(device.active_minidisks()) == before:
            device.chip.retire(fpage)
            fpage += 1
            device._rebalance_capacity()
        assert bool(calls) is counted
        device._audit_fastpath()


class TestEvents:
    def test_listener_receives_decommission(self, make_salamander):
        device = make_salamander()
        events = []
        device.add_listener(events.append)
        device._decommission(device.minidisks[0], reason="test")
        assert len(events) == 1
        event = events[0]
        assert isinstance(event, MinidiskDecommissioned)
        assert event.mdisk_id == 0
        assert event.reason == "test"
        assert event.remaining_active == len(device.active_minidisks())

    def test_event_log_kept_on_device(self, make_salamander):
        device = make_salamander()
        device._decommission(device.minidisks[0], reason="test")
        assert len(device.events) == 1

    def test_exhaustion_event_and_refusal(self, make_salamander):
        device = make_salamander()
        for mdisk in list(device.active_minidisks()):
            device._decommission(mdisk, reason="test")
        device._exhaust()
        assert isinstance(device.events[-1], DeviceExhausted)
        assert not device.is_alive
        with pytest.raises(DeviceBrickedError):
            device.read(0, 0)

    def test_event_seq_totally_ordered(self, make_salamander):
        device = make_salamander()
        device._decommission(device.minidisks[0], reason="a")
        device._decommission(device.minidisks[1], reason="b")
        seqs = [e.seq for e in device.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


class TestReport:
    def test_report_fields(self, make_salamander):
        device = make_salamander(mode="regen")
        report = device.report()
        assert report["mode"] == "regen"
        assert report["active_minidisks"] == len(device.active_minidisks())
        assert report["alive"] == 1.0
        assert report["in_service_opage_slots"] > 0

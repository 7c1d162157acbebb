"""Equivalence tests for the FTL's incremental fast-path state.

Every counter and cached index the fast path maintains (mapped-LBA count,
per-stream buffer counts, free/closed block arrays, per-block valid and
usable-slot accounting) must equal the O(n) scan it replaced at any
externally observable moment. ``PageMappedFTL._audit_fastpath`` performs
the full cross-check; these tests hammer it under random workloads on
every device flavour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    DeviceBrickedError,
    DeviceReadOnlyError,
    OutOfSpaceError,
    UncorrectableError,
)
from repro.ssd.ftl import FTLConfig, PageMappedFTL


def churn(device, rng, ops: int, audit_every: int, *,
          n_lbas: int | None = None, streams: int = 1) -> None:
    """Random write/trim/read/flush mix with periodic full audits."""
    n = n_lbas if n_lbas is not None else device.n_lbas
    for i in range(ops):
        lba = int(rng.integers(0, n))
        op = rng.random()
        try:
            if op < 0.70:
                stream = int(rng.integers(0, streams))
                if streams > 1:
                    device.write(lba, bytes([i % 251]) * 8, stream=stream)
                else:
                    device.write(lba, bytes([i % 251]) * 8)
            elif op < 0.80:
                device.trim(lba)
            elif op < 0.95:
                device.read(lba)
            else:
                device.flush()
        except (UncorrectableError, OutOfSpaceError,
                DeviceBrickedError, DeviceReadOnlyError):
            return
        if i % audit_every == 0:
            device._audit_fastpath()
    device._audit_fastpath()


class TestAuditCleanDevice:
    def test_fresh_ftl_passes_audit(self, make_chip, ftl_config):
        ftl = PageMappedFTL.for_chip(make_chip(seed=3), ftl_config)
        ftl._audit_fastpath()

    def test_live_lbas_matches_scan_on_fresh_device(self, make_chip,
                                                    ftl_config):
        ftl = PageMappedFTL.for_chip(make_chip(seed=3), ftl_config)
        assert ftl.live_lbas() == ftl._live_lbas_scan() == 0


class TestAuditUnderChurn:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_plain_ftl(self, make_chip, ftl_config, seed):
        ftl = PageMappedFTL.for_chip(
            make_chip(seed=seed, variation_sigma=0.0), ftl_config)
        churn(ftl, np.random.default_rng(seed), ops=600, audit_every=37)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_baseline_device_with_wear(self, make_baseline, seed):
        device = make_baseline(seed=seed)
        churn(device, np.random.default_rng(seed), ops=900, audit_every=53)

    @pytest.mark.parametrize("mode", ["shrink", "regen"])
    def test_salamander_device(self, make_salamander, mode):
        device = make_salamander(mode=mode, seed=4)
        rng = np.random.default_rng(11)
        msize = device.salamander_config.msize_lbas
        for i in range(900):
            mdisk = int(rng.integers(0, len(device.minidisks)))
            lba = int(rng.integers(0, msize))
            try:
                if device.minidisk(mdisk).status.value != "active":
                    continue
                if rng.random() < 0.8:
                    device.write(mdisk, lba, bytes([i % 251]) * 8)
                else:
                    device.read(mdisk, lba)
            except (UncorrectableError, OutOfSpaceError):
                break
            if i % 53 == 0:
                device._audit_fastpath()
        device._audit_fastpath()

    def test_cvss_device(self, make_cvss):
        device = make_cvss(seed=6)
        churn(device, np.random.default_rng(6), ops=900, audit_every=53)

    def test_multistream_counts(self, make_chip):
        config = FTLConfig(overprovision=0.25, buffer_opages=8,
                           gc_reserve_blocks=2, host_streams=3,
                           stream_separation=True)
        ftl = PageMappedFTL.for_chip(make_chip(seed=7), config)
        churn(ftl, np.random.default_rng(7), ops=700, audit_every=41,
              streams=3)


class TestLiveLbasEquivalence:
    def test_counter_tracks_scan_through_overwrites_and_trims(
            self, make_chip, ftl_config):
        ftl = PageMappedFTL.for_chip(
            make_chip(seed=9, variation_sigma=0.0), ftl_config)
        rng = np.random.default_rng(9)
        for i in range(400):
            lba = int(rng.integers(0, ftl.n_lbas))
            if rng.random() < 0.8:
                ftl.write(lba, b"z" * 16)
            else:
                ftl.trim(lba)
            if i % 25 == 0:
                assert ftl.live_lbas() == ftl._live_lbas_scan()
        ftl.flush()
        assert ftl.live_lbas() == ftl._live_lbas_scan()

    def test_busiest_stream_matches_buffer_scan(self, make_chip):
        config = FTLConfig(overprovision=0.25, buffer_opages=8,
                           gc_reserve_blocks=2, host_streams=4,
                           stream_separation=True)
        ftl = PageMappedFTL.for_chip(make_chip(seed=10), config)
        rng = np.random.default_rng(10)
        written: dict[int, int] = {}    # LBA -> stream of its last write
        for i in range(300):
            lba = int(rng.integers(0, ftl.n_lbas))
            stream = int(rng.integers(0, 4))
            ftl.write(lba, b"s", stream=stream)
            written[lba] = stream
            buffered = ftl.buffer.keys()
            # Only the buffered LBAs written on a stream other than 0
            # carry a tag.
            assert ftl._buffer_stream == {
                key: written[key] for key in buffered if written[key]}
            # Reference recomputation: most-buffered stream, lowest index
            # winning ties — what the tag counts and the derived stream-0
            # count report.
            counts = [0] * 4
            for key in buffered:
                counts[written[key]] += 1
            expected = max(range(4), key=counts.__getitem__)
            assert ftl._busiest_stream() == expected


class TestAuditCatchesPlantedState:
    """The audit fails on state the write path must never leave."""

    @pytest.fixture
    def ftl(self, make_chip):
        config = FTLConfig(overprovision=0.25, buffer_opages=8,
                           gc_reserve_blocks=2, host_streams=3)
        ftl = PageMappedFTL.for_chip(make_chip(seed=14), config)
        for lba in range(4):
            ftl.write(lba, b"t", stream=1)
        ftl.flush()
        ftl.write(9, b"u")
        ftl._audit_fastpath()
        return ftl

    def test_a_stale_tag(self, ftl):
        # Counted, so only the tag's key gives it away: LBA 2 has drained.
        ftl._buffer_stream[2] = 1
        ftl._stream_counts[1] += 1
        with pytest.raises(AssertionError, match="unbuffered key"):
            ftl._audit_fastpath()

    def test_a_stream_0_tag(self, ftl):
        ftl._buffer_stream[9] = 0
        with pytest.raises(AssertionError, match="stream-0 tag"):
            ftl._audit_fastpath()

    def test_a_numpy_page_state(self, ftl):
        # Compares equal cell by cell; only the representation check sees it.
        ftl.chip._state = np.array(ftl.chip._state, dtype=np.int8)
        with pytest.raises(AssertionError,
                           match="_state representation diverged"):
            ftl._audit_fastpath()


class TestFreeListIndex:
    def test_free_array_sorted_and_filtered(self, make_baseline):
        device = make_baseline(seed=12)
        rng = np.random.default_rng(12)
        churn(device, rng, ops=500, audit_every=500)
        usable = device._free_blocks.ordered()
        assert usable == sorted(set(usable))
        for block in usable:
            assert device._block_usable(block)

    def test_ledger_filter_applies_lazily(self, make_baseline):
        """Marking a block bad removes it from the next view build."""
        device = make_baseline(seed=13)
        free_before = set(device._free_blocks.ordered())
        victim = next(iter(sorted(free_before)))
        device.ledger.mark_bad(victim)
        device._free_blocks.invalidate()
        assert victim not in device._free_blocks.ordered()

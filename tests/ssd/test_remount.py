"""Tests for power-loss recovery: OOB replay and remount."""

import numpy as np
import pytest

import repro.errors as E
from repro.ssd.device import BaselineSSD, SSDConfig
from repro.ssd.ftl import FTLConfig, PageMappedFTL
from repro.workloads.generators import stamp_payload


def crash_and_remount(ftl: PageMappedFTL, keep_buffer: bool = True):
    """Simulate power loss: only chip state (and optionally NVRAM) survive."""
    entries = ([(lba, ftl.buffer.get(lba)) for lba in ftl.buffer.keys()]
               if keep_buffer else None)
    return PageMappedFTL.remount(ftl.chip, ftl.n_lbas, ftl.config, entries)


class TestRemount:
    def test_flushed_data_survives(self, make_chip, ftl_config):
        ftl = PageMappedFTL.for_chip(make_chip(variation_sigma=0.0),
                                     ftl_config)
        for lba in range(60):
            ftl.write(lba, stamp_payload(lba, 1))
        ftl.flush()
        recovered = crash_and_remount(ftl)
        for lba in range(60):
            assert recovered.read(lba).rstrip(b"\0") == stamp_payload(lba, 1)

    def test_newest_version_wins(self, make_chip, ftl_config):
        ftl = PageMappedFTL.for_chip(make_chip(variation_sigma=0.0),
                                     ftl_config)
        for generation in range(5):
            for lba in range(24):
                ftl.write(lba, stamp_payload(lba, generation))
        ftl.flush()
        recovered = crash_and_remount(ftl)
        for lba in range(24):
            assert recovered.read(lba).rstrip(b"\0") == \
                stamp_payload(lba, 4)

    def test_survives_gc_relocations(self, make_chip, ftl_config):
        ftl = PageMappedFTL.for_chip(make_chip(variation_sigma=0.0),
                                     ftl_config)
        rng = np.random.default_rng(0)
        latest = {}
        for i in range(5 * ftl.n_lbas):
            lba = int(rng.integers(0, ftl.n_lbas // 2))
            payload = stamp_payload(lba, i)
            ftl.write(lba, payload)
            latest[lba] = payload
        ftl.flush()
        assert ftl.stats.erases > 0  # GC actually ran
        recovered = crash_and_remount(ftl)
        for lba, payload in latest.items():
            assert recovered.read(lba).rstrip(b"\0") == payload

    def test_nvram_buffer_restored(self, make_chip, ftl_config):
        ftl = PageMappedFTL.for_chip(make_chip(variation_sigma=0.0),
                                     ftl_config)
        ftl.write(0, b"flushed")
        ftl.flush()
        ftl.write(1, b"unflushed")
        recovered = crash_and_remount(ftl, keep_buffer=True)
        assert recovered.read(1).rstrip(b"\0") == b"unflushed"

    def test_nvram_failure_loses_unflushed_only(self, make_chip,
                                                ftl_config):
        ftl = PageMappedFTL.for_chip(make_chip(variation_sigma=0.0),
                                     ftl_config)
        ftl.write(0, b"flushed")
        ftl.flush()
        ftl.write(1, b"unflushed")
        recovered = crash_and_remount(ftl, keep_buffer=False)
        assert recovered.read(0).rstrip(b"\0") == b"flushed"
        assert recovered.read(1) == bytes(4096)

    def test_trim_resurrection_is_documented_semantics(self, make_chip,
                                                       ftl_config):
        ftl = PageMappedFTL.for_chip(make_chip(variation_sigma=0.0),
                                     ftl_config)
        ftl.write(3, b"zombie")
        ftl.flush()
        ftl.trim(3)
        assert ftl.read(3) == bytes(4096)
        recovered = crash_and_remount(ftl)
        # No trim journal: the trimmed write resurrects.
        assert recovered.read(3).rstrip(b"\0") == b"zombie"

    def test_remounted_device_keeps_working(self, make_chip, ftl_config):
        ftl = PageMappedFTL.for_chip(make_chip(variation_sigma=0.0),
                                     ftl_config)
        rng = np.random.default_rng(1)
        for i in range(3 * ftl.n_lbas):
            ftl.write(int(rng.integers(0, ftl.n_lbas // 2)),
                      stamp_payload(i, i))
        ftl.flush()
        recovered = crash_and_remount(ftl)
        # Keep writing well past another device-worth of traffic.
        latest = {}
        for i in range(3 * recovered.n_lbas):
            lba = int(rng.integers(0, recovered.n_lbas // 2))
            payload = stamp_payload(lba, 10_000 + i)
            recovered.write(lba, payload)
            latest[lba] = payload
        for lba, payload in latest.items():
            assert recovered.read(lba).rstrip(b"\0") == payload

    def test_write_seq_continues_after_remount(self, make_chip, ftl_config):
        ftl = PageMappedFTL.for_chip(make_chip(variation_sigma=0.0),
                                     ftl_config)
        for lba in range(16):
            ftl.write(lba, b"a")
        ftl.flush()
        recovered = crash_and_remount(ftl)
        before = recovered._write_seq
        recovered.write(0, b"b")
        recovered.flush()
        assert recovered._write_seq > before >= ftl._write_seq - 1

    def test_accounting_matches_fresh_scan(self, make_chip, ftl_config):
        ftl = PageMappedFTL.for_chip(make_chip(variation_sigma=0.0),
                                     ftl_config)
        rng = np.random.default_rng(2)
        for i in range(4 * ftl.n_lbas):
            ftl.write(int(rng.integers(0, ftl.n_lbas // 2)), b"x")
        ftl.flush()
        recovered = crash_and_remount(ftl)
        assert recovered.live_lbas() == ftl.live_lbas()
        assert recovered._valid_counts == ftl._valid_counts


class TestBaselineRemount:
    def test_ledger_rebuilt_from_retired_pages(self, make_baseline,
                                               make_chip, ftl_config):
        device = make_baseline(seed=1)
        rng = np.random.default_rng(0)
        try:
            while True:
                device.write(int(rng.integers(0, device.n_lbas // 2)), b"x")
        except E.ReproError:
            pass
        bad_before = device.ledger.bad_blocks()
        remounted = BaselineSSD.remount(
            device.chip, device.device_config, device.n_lbas)
        assert remounted.ledger.bad_blocks() == bad_before
        assert remounted.is_failed == device.is_failed

    def test_healthy_device_remounts_alive(self, make_baseline):
        device = make_baseline(seed=2)
        device.write(0, b"hello")
        device.flush()
        remounted = BaselineSSD.remount(
            device.chip, device.device_config, device.n_lbas)
        assert remounted.is_alive
        assert remounted.read(0).rstrip(b"\0") == b"hello"

"""Chip-level faults end to end: what the FTL does when media misbehaves.

These are behaviour tests, not dispatch tests (those live in
``test_injector.py``): each one scopes a targeted plan, drives the
device through its public API and asserts the firmware-level response —
lose-and-report for uncorrectable reads, silent persistence for
injected corruption, retire-and-retry for program failures, and
condemn-the-block for erase failures.
"""

from __future__ import annotations

import pytest

from repro import context
from repro.errors import UncorrectableError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.ssd.ftl import PageMappedFTL

RETIRED = 2  # chip state code for retired fPages


def plan_of(*specs):
    return FaultPlan(events=tuple(specs))


def make_ftl(make_chip, ftl_config, seed=1):
    return PageMappedFTL.for_chip(
        make_chip(seed=seed, inject_errors=False), ftl_config)


class TestReadFaults:
    def test_uncorrectable_read_loses_lba_until_rewritten(self, make_chip,
                                                          ftl_config):
        plan = plan_of(FaultSpec(site="chip.read", fault="uncorrectable",
                                 when=1))
        with context.scoped(faults=FaultInjector(plan)):
            device = make_ftl(make_chip, ftl_config)
            device.write(5, b"fragile")
            device.flush()  # off NVRAM, onto flash
            with pytest.raises(UncorrectableError):
                device.read(5)
            # The mapping now records the loss: later reads fail fast
            # (and deterministically) instead of re-sensing the page.
            with pytest.raises(UncorrectableError, match="lost"):
                device.read(5)
            device.write(5, b"replacement")
            opage = device.geometry.opage_bytes
            assert device.read(5) == b"replacement".ljust(opage, b"\0")
            device._audit_fastpath()

    def test_corruption_is_silent_and_persistent(self, make_chip,
                                                 ftl_config):
        plan = plan_of(FaultSpec(site="chip.read", fault="corrupt", when=1,
                                 args={"byte": 2, "mask": 0x01}))
        with context.scoped(faults=FaultInjector(plan)):
            device = make_ftl(make_chip, ftl_config)
            device.write(5, b"abcd")
            device.flush()
            opage = device.geometry.opage_bytes
            first = device.read(5)
            expected = bytearray(b"abcd".ljust(opage, b"\0"))
            expected[2] ^= 0x01
            # No error raised — that is the point of silent corruption —
            # but the payload is wrong...
            assert first == bytes(expected)
            # ...and *stays* wrong: the flip damaged the stored media,
            # it is not a per-read disturbance.
            assert device.read(5) == first
            summary = context.current().faults.summary()
            assert summary["fired"] == {"chip.read:corrupt": 1}


class TestProgramAndEraseFaults:
    def test_program_failure_retires_page_and_keeps_data(self, make_chip,
                                                         ftl_config):
        plan = plan_of(FaultSpec(site="chip.program", fault="fail", when=1))
        with context.scoped(faults=FaultInjector(plan)):
            device = make_ftl(make_chip, ftl_config)
            writes = {}
            for lba in range(ftl_config.buffer_opages + 1):  # forces drain
                device.write(lba, f"d{lba}".encode())
                writes[lba] = f"d{lba}".encode()
            device.flush()
            # The failed program retired its fPage and the drain retried
            # on a fresh one: every acked write is durable.
            opage = device.geometry.opage_bytes
            for lba, data in writes.items():
                assert device.read(lba) == data.ljust(opage, b"\0")
            assert (device.chip.state_array() == RETIRED).sum() >= 1
            assert device.stats.retired_fpages >= 1
            device._audit_fastpath()

    def test_erase_failure_condemns_block_without_data_loss(self, make_chip,
                                                            ftl_config):
        plan = plan_of(FaultSpec(site="chip.erase", fault="fail", when=1))
        with context.scoped(faults=FaultInjector(plan)):
            device = make_ftl(make_chip, ftl_config)
            writes = {}
            serial = 0
            # Churn a small LBA window until GC has to erase (and the
            # injected failure condemns that block).
            for round_index in range(60):
                for lba in range(24):
                    serial += 1
                    device.write(lba, f"r{serial}".encode())
                    writes[lba] = f"r{serial}".encode()
                device.background_tick(max_collections=2)
                if device._dead_blocks:
                    break
            assert device._dead_blocks, "GC never attempted an erase"
            condemned = next(iter(device._dead_blocks))
            pages = device.geometry.fpage_range_of_block(condemned)
            assert all(device.chip.state_array()[p] == RETIRED
                       for p in pages)
            opage = device.geometry.opage_bytes
            for lba, data in writes.items():
                assert device.read(lba) == data.ljust(opage, b"\0")
            device._audit_fastpath()
            summary = context.current().faults.summary()
            assert summary["fired"] == {"chip.erase:fail": 1}

    def test_forced_gc_victim_steers_but_never_corrupts(self, make_chip,
                                                        ftl_config):
        # ``gc.pick``/``force_victim`` overrides the policy with the
        # fullest candidate — the worst case for write amplification.
        # Pathological scheduling must degrade performance only, never
        # durability.
        plan = plan_of(FaultSpec(site="gc.pick", fault="force_victim",
                                 when=1, count=3))
        with context.scoped(faults=FaultInjector(plan)):
            device = make_ftl(make_chip, ftl_config)
            writes = {}
            serial = 0
            for _round in range(40):
                for lba in range(24):
                    serial += 1
                    device.write(lba, f"v{serial}".encode())
                    writes[lba] = f"v{serial}".encode()
                device.background_tick(max_collections=2)
            summary = context.current().faults.summary()
            assert summary["fired"].get("gc.pick:force_victim", 0) >= 1
            for record in context.current().faults.fired:
                assert record.site == "gc.pick"
                assert "victim" in record.context
            opage = device.geometry.opage_bytes
            for lba, data in writes.items():
                assert device.read(lba) == data.ljust(opage, b"\0")
            device._audit_fastpath()

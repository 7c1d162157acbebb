"""Ack-before-persist regressions: an acked op survives any crash.

Each test pins one historical durability hazard with a targeted crash:

* drain **pre**-program — acked writes still live only in NVRAM;
* drain **post**-program — data on flash *and* in NVRAM (the discard
  never ran): remount must neither lose nor duplicate it;
* Salamander immediate (grace=0) decommission — the NVRAM minidisk
  table records the decommission *before* the mappings are dropped, so
  a crash in between must remount to a DECOMMISSIONED mDisk, never an
  ACTIVE one whose acked data is already gone;
* Salamander regeneration — the crash point sits before the atomic
  NVRAM mint, so a crash never leaves a half-minted mDisk.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import context
from repro.errors import (
    DeviceBrickedError,
    MinidiskDecommissionedError,
    OutOfSpaceError,
    PowerLossError,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults.harness import remount_after_crash, run_to_crash
from repro.ssd.ftl import PageMappedFTL


def plan_of(*specs):
    return FaultPlan(events=tuple(specs))


def payloads_for(device, writes):
    opage = device.geometry.opage_bytes
    return {lba: data.ljust(opage, b"\0") for lba, data in writes.items()}


class TestDrainCrashes:
    def _fill_buffer(self, device, n):
        writes = {}
        for lba in range(n):
            device.write(lba, f"acked-{lba}".encode())
            writes[lba] = f"acked-{lba}".encode()
        return writes

    def test_pre_program_crash_keeps_every_acked_write(self, make_chip,
                                                       ftl_config):
        plan = plan_of(FaultSpec(site="ftl.drain.pre_program",
                                 fault="crash", when=1))
        with context.scoped(faults=FaultInjector(plan)):
            device = PageMappedFTL.for_chip(
                make_chip(inject_errors=False), ftl_config)
            writes = self._fill_buffer(device, ftl_config.buffer_opages)
            # The next write needs buffer space -> drain -> crash. It is
            # *not* acked, so only the first 8 must survive.
            device, crashed, site = run_to_crash(
                lambda: device.write(99, b"never-acked"), device)
            assert crashed and site == "ftl.drain.pre_program"
            for lba, expected in payloads_for(device, writes).items():
                assert device.read(lba) == expected
            assert device.read(99) == bytes(device.geometry.opage_bytes)
            device._audit_fastpath()

    def test_post_program_crash_loses_nothing_duplicates_nothing(
            self, make_chip, ftl_config):
        plan = plan_of(FaultSpec(site="ftl.drain.post_program",
                                 fault="crash", when=1))
        with context.scoped(faults=FaultInjector(plan)):
            device = PageMappedFTL.for_chip(
                make_chip(inject_errors=False), ftl_config)
            writes = self._fill_buffer(device, ftl_config.buffer_opages)
            device, crashed, site = run_to_crash(device.flush, device)
            assert crashed and site == "ftl.drain.post_program"
            # The drained fPage is on flash AND still in the NVRAM
            # buffer (its discard never ran). The buffered copy shadows
            # the flash copy, then a later drain re-programs it with a
            # newer write sequence — either way each LBA reads back its
            # single acked payload.
            expected = payloads_for(device, writes)
            for lba, want in expected.items():
                assert device.read(lba) == want
            device.flush()
            for lba, want in expected.items():
                assert device.read(lba) == want
            device._audit_fastpath()
            # And a second power cycle straight after also converges.
            remounted = remount_after_crash(device)
            for lba, want in expected.items():
                assert remounted.read(lba) == want
            remounted._audit_fastpath()


class TestSalamanderLifecycleCrashes:
    def test_decommission_crash_is_recorded_before_data_drop(
            self, make_salamander):
        plan = plan_of(FaultSpec(site="salamander.decommission",
                                 fault="crash", when=1))
        with context.scoped(faults=FaultInjector(plan)):
            device = make_salamander(mode="shrink", inject_errors=False)
            survivors = {}
            for mdisk in device.active_minidisks():
                device.write(mdisk.mdisk_id, 0,
                             f"m{mdisk.mdisk_id}".encode())
                survivors[mdisk.mdisk_id] = f"m{mdisk.mdisk_id}".encode()
            victim = device.minidisk(0)
            with pytest.raises(PowerLossError) as excinfo:
                device._decommission(victim, reason="wear")
            assert excinfo.value.site == "salamander.decommission"
            device = remount_after_crash(device)
            # The NVRAM table already says DECOMMISSIONED: the remount
            # re-runs the invalidation instead of resurrecting an ACTIVE
            # mDisk whose acked data was (about to be) dropped.
            assert not device.minidisk(0).is_readable
            with pytest.raises(MinidiskDecommissionedError):
                device.read(0, 0)
            opage = device.geometry.opage_bytes
            for mdisk_id, data in survivors.items():
                if mdisk_id == 0:
                    continue
                assert device.read(mdisk_id, 0) == data.ljust(opage, b"\0")
            device._audit_fastpath()

    def test_regenerate_crash_leaves_no_half_minted_minidisk(
            self, make_salamander):
        plan = plan_of(FaultSpec(site="salamander.regenerate",
                                 fault="crash", when=1))
        with context.scoped(faults=FaultInjector(plan)):
            device = make_salamander(mode="regen", seed=3,
                                     inject_errors=False)
            rng = np.random.default_rng(7)
            crash = None
            for i in range(20000):
                active = device.active_minidisks()
                if not active:
                    break
                mdisk = active[int(rng.integers(len(active)))]
                lba = int(rng.integers(mdisk.size_lbas))
                try:
                    device.write(mdisk.mdisk_id, lba, f"p{i}".encode())
                except PowerLossError as loss:
                    crash = loss.site
                    break
                except (MinidiskDecommissionedError, OutOfSpaceError):
                    continue
                except DeviceBrickedError:
                    break
            assert crash == "salamander.regenerate", (
                "write churn never reached a regeneration; "
                "retune the wear parameters")
            minted_before = len(device.minidisks)
            device = remount_after_crash(device)
            # The mint is one atomic NVRAM transaction after the crash
            # point: no new mDisk, no limbo pages half-removed, flat
            # space consistent with the minidisk table.
            assert len(device.minidisks) == minted_before
            assert device.stats.regenerated_minidisks == 0
            assert device.n_lbas == sum(m.size_lbas
                                        for m in device.minidisks)
            device._audit_fastpath()
            # The device keeps working after the power cycle: the next
            # rebalance retries the regeneration (the plan's single
            # event is spent).
            active = device.active_minidisks()
            assert active
            device.write(active[0].mdisk_id, 1, b"post-crash")
            opage = device.geometry.opage_bytes
            assert device.read(active[0].mdisk_id, 1) == \
                b"post-crash".ljust(opage, b"\0")

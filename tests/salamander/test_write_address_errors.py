"""A malformed Salamander write address fails as it always has.

``SalamanderSSD.write`` / ``write_range`` range-check the address
against the minidisk table and admit it once in ``_admit_write``; the
lookups that raise (``minidisk``, ``Minidisk.flat_lba`` /
``flat_range``, ``_active_mdisk``) run only on the refusing path. The
exception each refusal raises — its type, its message, and which check
wins when two apply — is pinned here as the literals the per-call
lookups produced, through the two write methods and through
``DeviceQueue.dispatch``, which hands the device's error back.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    ConfigError,
    DeviceBrickedError,
    MinidiskDecommissionedError,
)
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.io.queue import DeviceQueue
from repro.io.request import OP_WRITE
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.salamander.minidisk import MinidiskStatus
from repro.ssd.ftl import FTLConfig

GEOMETRY = FlashGeometry(blocks=16, fpages_per_block=8)
POLICY = TirednessPolicy(geometry=GEOMETRY)
MODEL = calibrate_power_law(POLICY, pec_limit_l0=3)
MSIZE = 32
COUNT = 10      # minidisks on the device below

RANGE_MSIZE = (ConfigError,
               "range [32, 33) is empty or exceeds mDisk size 32")
#: case -> (exhausted?, mdisk_id, lba, members,
#:          what write raises, what write_range and dispatch raise).
CASES = {
    "mdisk_id -1": (False, -1, 0, 1,
                    (ConfigError, "mDisk -1 does not exist (device has 10)"),
                    None),
    "mdisk_id = count": (False, COUNT, 0, 1,
                         (ConfigError,
                          "mDisk 10 does not exist (device has 10)"),
                         None),
    "lba -1": (False, 0, -1, 1,
               (ConfigError, "LBA -1 out of mDisk range [0, 32)"),
               (ConfigError,
                "range [-1, 0) is empty or exceeds mDisk size 32")),
    "lba = mSize": (False, 0, MSIZE, 1,
                    (ConfigError, "LBA 32 out of mDisk range [0, 32)"),
                    RANGE_MSIZE),
    "range across the mDisk end": (
        False, 0, MSIZE - 2, 3, None,
        (ConfigError, "range [30, 33) is empty or exceeds mDisk size 32")),
    "empty range": (
        False, 0, 0, 0, None,
        (ConfigError, "range [0, 0) is empty or exceeds mDisk size 32")),
    "DRAINING mDisk": (False, 2, 0, 1,
                       (MinidiskDecommissionedError,
                        "mDisk 2 was decommissioned"), None),
    "DECOMMISSIONED mDisk": (False, 1, 0, 1,
                             (MinidiskDecommissionedError,
                              "mDisk 1 was decommissioned"), None),
    # The address is checked before liveness or status.
    "DECOMMISSIONED mDisk, lba = mSize": (
        False, 1, MSIZE, 1,
        (ConfigError, "LBA 32 out of mDisk range [0, 32)"), RANGE_MSIZE),
    "exhausted device": (True, 0, 0, 1,
                         (DeviceBrickedError,
                          "all minidisks decommissioned"), None),
    "exhausted device, mdisk_id = count": (
        True, COUNT, 0, 1,
        (ConfigError, "mDisk 10 does not exist (device has 10)"), None),
    "exhausted device, lba = mSize": (
        True, 0, MSIZE, 1,
        (ConfigError, "LBA 32 out of mDisk range [0, 32)"), RANGE_MSIZE),
}


def device(exhausted: bool) -> SalamanderSSD:
    """Ten minidisks: 1 DECOMMISSIONED, 2 DRAINING, the rest ACTIVE."""
    chip = FlashChip(GEOMETRY, rber_model=MODEL, policy=POLICY, seed=1)
    ssd = SalamanderSSD(chip, SalamanderConfig(
        msize_lbas=MSIZE, mode="shrink", headroom_fraction=0.25,
        grace_decommissions=1,
        ftl=FTLConfig(overprovision=0.25, buffer_opages=8,
                      gc_reserve_blocks=2)))
    # With one grace slot, the second decommission ends the first's.
    ssd._decommission(ssd.minidisk(1), "wear")
    ssd._decommission(ssd.minidisk(2), "wear")
    assert len(ssd.minidisks) == COUNT
    assert ssd.minidisk(1).status is MinidiskStatus.DECOMMISSIONED
    assert ssd.minidisk(2).status is MinidiskStatus.DRAINING
    if exhausted:
        ssd._exhaust()
    return ssd


def _write(ssd, mdisk_id, lba, payloads):
    ssd.write(mdisk_id, lba, payloads[0])


def _write_range(ssd, mdisk_id, lba, payloads):
    ssd.write_range(mdisk_id, lba, payloads)


def _dispatch(ssd, mdisk_id, lba, payloads):
    error = DeviceQueue(ssd).dispatch(
        OP_WRITE, lba, len(payloads), payloads=payloads,
        mdisk_id=mdisk_id)[1]
    if error is not None:
        raise error


ENTRIES = {"write": _write, "write_range": _write_range,
           "dispatch": _dispatch}


#: Every case through every entry; a single write has one member.
PAIRS = [(case, entry) for case in CASES for entry in ENTRIES
         if entry != "write" or CASES[case][3] == 1]


@pytest.mark.parametrize("case,entry", PAIRS)
def test_each_malformed_address_raises_as_before(case, entry):
    exhausted, mdisk_id, lba, members, single, ranged = CASES[case]
    expected = single if entry == "write" else (ranged or single)
    ssd = device(exhausted)
    payloads = [b"x"] * members
    with pytest.raises(Exception) as raised:
        ENTRIES[entry](ssd, mdisk_id, lba, payloads)
    assert (type(raised.value), str(raised.value)) == expected
    assert ssd.stats.host_writes == 0


@pytest.mark.parametrize("entry", ENTRIES)
def test_a_well_formed_address_lands(entry):
    ssd = device(exhausted=False)
    ENTRIES[entry](ssd, COUNT - 1, MSIZE - 1, [b"tail"])
    assert ssd.read(COUNT - 1, MSIZE - 1).rstrip(b"\0") == b"tail"
    assert ssd.stats.host_writes == 1

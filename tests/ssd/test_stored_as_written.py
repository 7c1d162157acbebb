"""Stored as written: the chip keeps an oPage as it was programmed, and
host reads zero-pad it to ``opage_bytes``.

``FlashChip.program_trusted`` stores each payload object it is handed
(an empty one, and every slot past the payloads, as the shared
``_zero_opage``); ``read``, point or whole-fPage, returns the stored
objects, and GC relocation carries them through unchanged.
``PageMappedFTL.read`` and ``read_range`` are where bytes leave the
device, so they are the pad sites. This module holds the three
contracts that move with that rule (docs/PERFORMANCE.md, "Kernels and
their twins"):

* every host read — ``read``, ``read_range`` and ``DeviceQueue.dispatch``,
  on all five flavours — returns ``payload.ljust(opage_bytes, b"\\0")``
  for buffered, flash-resident (fresh and relocated), unmapped and
  remounted data;
* an injected ``chip.read: corrupt`` flips the same byte of the same
  4 KiB page as when the chip stored padded pages;
* a short payload costs its own bytes, not a 4 KiB page, per slot.
"""

from __future__ import annotations

import tracemalloc
import types

import pytest

from repro import context
from repro.errors import PowerLossError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults.harness import remount_after_crash
from repro.io.queue import DeviceQueue
from repro.io.request import OP_READ, OP_READ_RANGE
from repro.salamander.device import SalamanderSSD
from repro.ssd.ftl import PageMappedFTL

OPAGE = 4096
FLAVOURS = ("ftl", "baseline", "cvss", "shrink", "regen")
#: LBAs written and flushed to flash before anything else.
RESIDENT = range(12)
#: Rewritten with nothing after it: stays in the write buffer.
BUFFERED = (3, 13)
#: Never written.
UNMAPPED = 20
#: LBAs the test addresses: a Salamander device's minidisk 0 holds 32.
SPACE = 32
#: Rewritten and flushed until the first block closes.
FILLER = SPACE - 1
#: The write a power loss interrupts.
CRASH = 21


def stamp(lba: int, version: int = 0) -> bytes:
    """A 16-byte payload, like the traffic engine's write stamps."""
    return f"{lba:06d}:{version:09d}".encode()


def build(flavour: str, make_chip, make_baseline, make_cvss,
          make_salamander, ftl_config):
    if flavour == "ftl":
        return PageMappedFTL(make_chip(inject_errors=False), 128, ftl_config)
    if flavour == "baseline":
        return make_baseline(inject_errors=False)
    if flavour == "cvss":
        return make_cvss(inject_errors=False)
    return make_salamander(mode=flavour, inject_errors=False)


class Host:
    """A device's host interface, flat or on minidisk 0."""

    def __init__(self, device) -> None:
        self.device = device
        self.mdisk = (0,) if isinstance(device, SalamanderSSD) else ()
        self.queue = DeviceQueue(device)

    def flat(self, lba: int) -> int:
        if self.mdisk:
            return self.device.minidisk(0).flat_lba(lba)
        return lba

    def write(self, lba: int, data: bytes) -> None:
        self.device.write(*self.mdisk, lba, data)

    def reads(self, lba: int) -> list[bytes]:
        """``lba`` through every host read path."""
        mdisk_id = self.mdisk[0] if self.mdisk else None
        single, error = self.queue.dispatch(OP_READ, lba, 1, None,
                                            mdisk_id)[:2]
        assert error is None
        ranged, error = self.queue.dispatch(OP_READ_RANGE, lba, 1, None,
                                            mdisk_id)[:2]
        assert error is None
        # A three-LBA range with ``lba`` inside it, within minidisk 0.
        first = max(0, min(lba - 1, SPACE - 3))
        return [self.device.read(*self.mdisk, lba),
                self.device.read_range(*self.mdisk, lba, 1)[0],
                self.device.read_range(*self.mdisk, first, 3)[lba - first],
                single[0], ranged[0]]


def check(host: Host, expected: dict[int, bytes]) -> None:
    for lba, payload in expected.items():
        page = payload.ljust(OPAGE, b"\0")
        assert host.reads(lba) == [page] * 5, f"LBA {lba}"


def close_first_block(host: Host, expected: dict[int, bytes]) -> int:
    """Rewrite-and-flush ``FILLER`` until the block holding LBA 0 is
    closed; returns that block."""
    device = host.device
    block = device._l2p[host.flat(0)] // device._slots_per_block
    version = 0
    while block not in device._closed_blocks:
        version += 1
        expected[FILLER] = stamp(FILLER, version)
        host.write(FILLER, expected[FILLER])
        device.flush()
    return block


def relocate(device, block: int) -> None:
    """A forced GC relocation: one ``_gc_once`` with ``block`` as its
    victim."""
    greedy = device._gc
    device._gc = types.SimpleNamespace(pick=lambda *_: block)
    try:
        device._gc_once()
    finally:
        device._gc = greedy


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_every_host_read_returns_a_full_oPage(
        flavour, make_chip, make_baseline, make_cvss, make_salamander,
        ftl_config):
    # The power loss strikes the first write of LBA ``CRASH``.
    plan = FaultPlan((FaultSpec("ftl.write", "crash", count=1 << 20,
                                match={"lba": CRASH}),))
    with context.scoped(faults=FaultInjector(plan)):
        host = Host(build(flavour, make_chip, make_baseline, make_cvss,
                          make_salamander, ftl_config))
    device = host.device
    assert host.flat(CRASH) == CRASH
    expected = {UNMAPPED: b""}
    for lba in RESIDENT:
        expected[lba] = stamp(lba)
        host.write(lba, expected[lba])
    block = close_first_block(host, expected)
    spb = device._slots_per_block
    # Flash-resident and fresh: the chip holds the payload unpadded.
    slot = device._l2p[host.flat(0)]
    fpage, offset = divmod(slot, device._slots_per_fpage_max)
    assert device.chip._data[fpage][offset] == stamp(0)
    check(host, expected)
    # Buffered.
    for lba in BUFFERED:
        expected[lba] = stamp(lba, 1)
        host.write(lba, expected[lba])
    assert all(host.flat(lba) in device.buffer for lba in BUFFERED)
    check(host, expected)
    # Relocated by a forced collection, still unpadded on the chip.
    relocations = device.stats.gc_relocations
    relocate(device, block)
    assert device.stats.gc_relocations > relocations
    moved = [lba for lba in RESIDENT if lba not in BUFFERED]
    assert all(device._l2p[host.flat(lba)] // spb != block for lba in moved)
    slot = device._l2p[host.flat(0)]
    fpage, offset = divmod(slot, device._slots_per_fpage_max)
    assert device.chip._data[fpage][offset] == stamp(0)
    check(host, expected)
    # A power loss at the next write (never acked), then a remount.
    with pytest.raises(PowerLossError):
        host.write(CRASH, stamp(CRASH))
    host = Host(remount_after_crash(device))
    expected[CRASH] = b""
    check(host, expected)


# -- the fault path ---------------------------------------------------------

@pytest.mark.parametrize("path", ("read", "read_range"))
def test_an_injected_corruption_flips_the_same_byte(path, make_chip,
                                                    ftl_config):
    """``byte=100`` of a 16-byte payload is byte 100 of its 4 KiB page
    (``_corrupt_slot`` pads before it flips), not byte ``100 % 16``."""
    plan = FaultPlan((FaultSpec("chip.read", "corrupt", when=1,
                                args={"byte": 100, "slot": 0}),))
    with context.scoped(faults=FaultInjector(plan)):
        ftl = PageMappedFTL(make_chip(inject_errors=False), 64, ftl_config)
    ftl.write(0, stamp(0))
    ftl.flush()
    assert ftl._l2p[0] % ftl._slots_per_fpage_max == 0
    page = ftl.read(0) if path == "read" else ftl.read_range(0, 1)[0]
    damaged = bytearray(stamp(0).ljust(OPAGE, b"\0"))
    damaged[100] ^= 0xFF
    assert page == bytes(damaged)
    # Persistent: the next read, by either path, sees the same bytes.
    assert ftl.read(0) == ftl.read_range(0, 1)[0] == bytes(damaged)


# -- what a slot retains -----------------------------------------------------

def test_short_payloads_retain_their_own_bytes(make_chip, ftl_config):
    """Writes through the FTL's write path and forced relocations keep
    well under 512 B per programmed slot alive (a padded copy is 4 KiB)."""
    ftl = PageMappedFTL(make_chip(inject_errors=False), 256, ftl_config)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for lba in range(256):
            ftl.write(lba, stamp(lba))
        ftl.flush()
        for _ in range(4):
            ftl._gc_once()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert ftl.stats.gc_relocations >= 64
    oobs = map(ftl.chip.read_oob, range(ftl.geometry.total_fpages))
    slots = sum(len(lbas) - lbas.count(None)
                for lbas, _ in filter(None, oobs))
    assert slots == 256
    retained = sum(stat.size_diff for stat in after.compare_to(
        before, "filename") if stat.size_diff > 0)
    assert retained / slots < 512, (
        f"{retained / slots:.0f} B retained per programmed slot")
    assert [ftl.read(lba) for lba in (0, 255)] == [
        stamp(0).ljust(OPAGE, b"\0"), stamp(255).ljust(OPAGE, b"\0")]

"""Fixtures for the IO-pipeline suites: every device flavour, one shape.

``make_device`` builds any of the four flavours from one seed;
``device_io`` wraps a device in a tiny adapter that knows its address
shape (flat LBA vs ``(mdisk_id, lba)``) so the conformance suite can run
one workload over all of them, both directly and through the queue.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.io import IORequest
from repro.ssd.ftl import PageMappedFTL

#: ``salamander`` is ShrinkS (the fixture default); ``regen`` is RegenS
#: on the same geometry — same device class, different firmware mode.
FLAVOURS = ("ftl", "baseline", "cvss", "salamander", "regen")


def expected_kind(flavour: str) -> str:
    """Metric/protocol ``device_kind`` a flavour's device reports."""
    return "salamander" if flavour == "regen" else flavour


@pytest.fixture
def make_device(make_chip, ftl_config, make_baseline, make_cvss,
                make_salamander):
    """Build one identically-configured device of any flavour."""

    def factory(flavour: str, seed: int = 7):
        if flavour == "ftl":
            chip = make_chip(seed=seed)
            n_lbas = int(chip.geometry.total_opage_slots * 0.75)
            return PageMappedFTL(chip, n_lbas, ftl_config)
        if flavour == "baseline":
            return make_baseline(seed=seed)
        if flavour == "cvss":
            return make_cvss(seed=seed)
        if flavour == "salamander":
            return make_salamander(seed=seed)
        if flavour == "regen":
            return make_salamander(mode="regen", seed=seed)
        raise ValueError(flavour)

    return factory


def queue_state(queue, mdisk_id=None, lbas: int = 16):
    """Everything a dispatch can leave behind, as one comparable tuple:
    the queue's clock, servers, tags, window and stats, the chip's RNG,
    stats, channel clocks and wear, and what the first ``lbas`` addresses
    read back as. Twin queues driven through two submission surfaces
    must agree on all of it.
    """
    device = queue.device
    chip = device.chip
    state = (queue.clock_us, list(queue._channel_free), queue._next_tag,
             queue.inflight, dict(vars(queue.stats)),
             chip.rng.bit_generator.state, dict(vars(chip.stats)),
             list(chip.channel_busy_us), chip.wear_summary())
    contents = []
    for lba in range(lbas):
        try:
            contents.append(device.read(lba) if mdisk_id is None
                            else device.read(mdisk_id, lba))
        except ReproError as error:
            contents.append(type(error))
    return state + (contents,)


class DeviceIO:
    """Address-shape adapter: one API over flat and minidisk devices."""

    def __init__(self, device):
        self.device = device
        self.mdisk_id = None
        if device.device_kind == "salamander":
            self.mdisk_id = device.active_minidisks()[0].mdisk_id

    # -- legacy direct calls ------------------------------------------------

    def write_direct(self, lba: int, data: bytes) -> None:
        if self.mdisk_id is None:
            self.device.write(lba, data)
        else:
            self.device.write(self.mdisk_id, lba, data)

    def read_direct(self, lba: int) -> bytes:
        if self.mdisk_id is None:
            return self.device.read(lba)
        return self.device.read(self.mdisk_id, lba)

    def read_range_direct(self, lba: int, count: int) -> list[bytes]:
        if self.mdisk_id is None:
            return self.device.read_range(lba, count)
        return self.device.read_range(self.mdisk_id, lba, count)

    def trim_direct(self, lba: int) -> None:
        if self.mdisk_id is None:
            self.device.trim(lba)
        else:
            self.device.trim(self.mdisk_id, lba)

    # -- queued requests ----------------------------------------------------

    def write_queued(self, lba: int, data: bytes) -> None:
        self.device.submit(IORequest(op="write", lba=lba, payloads=[data],
                                     mdisk_id=self.mdisk_id))

    def read_queued(self, lba: int) -> bytes:
        completion = self.device.io_queue.execute(
            IORequest(op="read", lba=lba, mdisk_id=self.mdisk_id))
        return completion.result[0]

    def read_range_queued(self, lba: int, count: int) -> list[bytes]:
        completion = self.device.io_queue.execute(
            IORequest(op="read_range", lba=lba, count=count,
                      mdisk_id=self.mdisk_id))
        return completion.result

    def trim_queued(self, lba: int) -> None:
        self.device.submit(IORequest(op="trim", lba=lba,
                                     mdisk_id=self.mdisk_id))


@pytest.fixture
def device_io():
    return DeviceIO

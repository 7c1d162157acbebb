"""Fixtures for the IO-pipeline suites: every device flavour, one shape.

``make_device`` builds any of the four flavours from one seed;
``device_io`` wraps a device in a tiny adapter that knows its address
shape (flat LBA vs ``(mdisk_id, lba)``) so the conformance suite can run
one workload over all of them, both directly and through the queue.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.io.request import OP_READ, OP_READ_RANGE, OP_TRIM, OP_WRITE
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


def device_state(device, mdisk_id=None, lbas: int = 16):
    """Everything a request can leave behind on a device, as one
    comparable tuple: the chip's RNG, stats, channel clocks and wear,
    the device's stats, and what the first ``lbas`` addresses read back
    as. A device driven through the queue and its twin driven by direct
    calls must agree on all of it.
    """
    chip = device.chip
    state = (chip.rng.bit_generator.state, dict(vars(chip.stats)),
             list(chip.channel_busy_us), chip.wear_summary(),
             device.stats.snapshot())
    contents = []
    for lba in range(lbas):
        try:
            contents.append(device.read(lba) if mdisk_id is None
                            else device.read(mdisk_id, lba))
        except ReproError as error:
            contents.append(type(error))
    return state + (contents,)


def queue_state(queue, mdisk_id=None, lbas: int = 16):
    """:func:`device_state` plus the queue's clock, servers, window and
    stats (``submitted`` is the next request's tag): twin queues driven
    the same way must agree on all of it."""
    return (queue.clock_us, list(queue._channel_free), queue.inflight,
            dict(vars(queue.stats))) + device_state(queue.device,
                                                    mdisk_id, lbas)


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

    def _dispatch(self, code: int, lba: int, count: int = 1,
                  payloads: list[bytes] | None = None):
        """One synchronous dispatch; raises the error it hands back,
        as a direct call would."""
        result, error = self.device.io_queue.dispatch(
            code, lba, count, payloads, self.mdisk_id)[:2]
        if error is not None:
            raise error
        return result

    def write_queued(self, lba: int, data: bytes) -> None:
        self._dispatch(OP_WRITE, lba, payloads=[data])

    def read_queued(self, lba: int) -> bytes:
        return self._dispatch(OP_READ, lba)[0]

    def read_range_queued(self, lba: int, count: int) -> list[bytes]:
        return self._dispatch(OP_READ_RANGE, lba, count)

    def trim_queued(self, lba: int) -> None:
        self._dispatch(OP_TRIM, lba)


@pytest.fixture
def device_io():
    return DeviceIO

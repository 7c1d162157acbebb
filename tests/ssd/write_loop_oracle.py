"""The per-LBA write loop, kept as the differential oracle.

These are ``PageMappedFTL.write`` / ``write_range``, the three flavour
``write`` overrides (``BaselineSSD``, ``CVSSDevice``, ``SalamanderSSD``)
and ``SalamanderSSD.write_range`` exactly as they stood before the
range write kernel (``PageMappedFTL._write_members``) replaced them:
one full ``write`` per member — admission gate, bounds, stream and size
checks, the ``ftl.write`` fault hit, ``buffer.put`` /
``_note_buffered``, a ``host_writes`` increment and a ``write_latency``
sample each. Methods became functions taking the device as ``self``;
nothing else changed, except that the range forms and the Salamander
write take the ``stream`` the queue used to pass member by member (the
old ``DeviceQueue._serve`` looped ``device.write(lba + offset, payload,
stream=stream)``), and that ``_note_buffered`` keeps the stream tags as
the kernel now does: only a buffered LBA on a stream other than 0 is
tagged. ``busiest_stream`` is the drain's stream choice recounted from
the buffer, the count the kernel's ``_busiest_stream`` derives instead;
the oracle twin drains by it, through ``drain_one_fpage``: the drain
as it stood before it took its open block's next fPage and peeked its
batch in its own frame, every page through ``_allocate_open_fpage`` and
``peek_batch``.
``test_write_kernel.py`` drives the kernel and this loop on twin
devices and compares everything observable after every call.
"""

from __future__ import annotations

from repro.errors import ConfigError, OutOfSpaceError, ProgramFaultError
from repro.salamander.device import SalamanderSSD
from repro.ssd.cvss import CVSSDevice
from repro.ssd.device import BaselineSSD


def _note_buffered(self, lba: int, stream: int) -> None:
    prev = self._buffer_stream.pop(lba, 0)
    if prev:
        self._stream_counts[prev] -= 1
    if stream:
        self._buffer_stream[lba] = stream
        self._stream_counts[stream] += 1


def busiest_stream(self) -> int:
    """Stream with the most buffered pages, lowest first on a tie."""
    counts = [0] * self.config.host_streams
    for lba in self.buffer.keys():
        counts[self._buffer_stream.get(lba, 0)] += 1
    return max(range(len(counts)), key=counts.__getitem__)


def drain_one_fpage(self) -> None:
    self._ensure_free_space()
    stream = self._busiest_stream()
    key = self._host_keys[stream]
    fpage, level = self._allocate_open_fpage(key)
    streams = self._buffer_stream
    # With nothing tagged, stream 0's batch is the oldest entries.
    lbas, payloads = self.buffer.peek_batch(
        self._data_opages[level],
        where=None if not (stream or streams)
        else lambda lba: streams.get(lba, 0) == stream)
    injector = self._faults
    if injector is not None:
        injector.crash_if("ftl.drain.pre_program", fpage=fpage)
    while True:
        try:
            self._program_fpage(fpage, level, lbas, payloads,
                                relocation=False)
            break
        except ProgramFaultError:
            # Media refused the program; the batch is still safe in
            # NVRAM. Retire the page and retry on a fresh one (whose
            # capacity may be smaller if it sits at a higher level —
            # the surplus simply stays buffered).
            self._on_program_fault(fpage)
            self._ensure_free_space()
            fpage, level = self._allocate_open_fpage(key)
            capacity = self._data_opages[level]
            lbas, payloads = lbas[:capacity], payloads[:capacity]
    if injector is not None:
        injector.crash_if("ftl.drain.post_program", fpage=fpage)
    # ``buffer.discard`` / ``_note_unbuffered`` per key, in place.
    entries = self.buffer._entries
    for lba in lbas:
        entries.pop(lba, None)
    if stream:      # a stream-0 batch carries no tags
        counts = self._stream_counts
        for lba in lbas:
            buffered_as = streams.pop(lba, None)
            if buffered_as is not None:
                counts[buffered_as] -= 1
    self._maybe_autoscrub()


def ftl_write(self, lba: int, data: bytes, stream: int = 0) -> None:
    self._check_lba(lba)
    if not 0 <= stream < self.config.host_streams:
        raise ConfigError(
            f"stream must be in [0, {self.config.host_streams}), "
            f"got {stream!r}")
    if len(data) > self.geometry.opage_bytes:
        raise ConfigError(
            f"write of {len(data)} bytes exceeds the {self.geometry.opage_bytes}"
            f"-byte oPage size; split at the device layer")
    buffer = self.buffer
    chip_stats = self.chip.stats
    busy_before = chip_stats.busy_us
    if self._faults is not None:
        self._faults.crash_if("ftl.write", lba=lba)
    if lba not in buffer and buffer.is_full:
        self._drain_one_fpage()
    buffer.put(lba, bytes(data))
    _note_buffered(self, lba, stream)
    self.stats.host_writes += 1  # counted only once accepted
    self.stats.write_latency.add(chip_stats.busy_us - busy_before)


def baseline_write(self, lba: int, data: bytes, stream: int = 0) -> None:
    self._check_writable()
    try:
        ftl_write(self, lba, data, stream=stream)
    except OutOfSpaceError:
        # A device that can no longer place host data is dead in practice.
        self._failed = True
        raise


def cvss_write(self, lba: int, data: bytes, stream: int = 0) -> None:
    self._check_alive()
    if lba >= self.capacity_lbas:
        raise OutOfSpaceError(
            f"LBA {lba} beyond shrunk capacity {self.capacity_lbas}")
    try:
        ftl_write(self, lba, data, stream=stream)
    except OutOfSpaceError:
        self._failed = True
        raise


def salamander_write(self, mdisk_id: int, lba: int, data: bytes,
                     stream: int = 0) -> None:
    mdisk = self._active_mdisk(mdisk_id)
    try:
        ftl_write(self, mdisk.flat_lba(lba), data, stream=stream)
    except OutOfSpaceError:
        self._exhaust()
        raise


def flat_write(self, lba: int, data: bytes, stream: int = 0) -> None:
    """``device.write`` as the flavour's class used to resolve it."""
    if isinstance(self, BaselineSSD):
        baseline_write(self, lba, data, stream)
    elif isinstance(self, CVSSDevice):
        cvss_write(self, lba, data, stream)
    else:
        ftl_write(self, lba, data, stream)


def flat_write_range(self, lba: int, payloads: list[bytes],
                     stream: int = 0) -> None:
    if not payloads:
        raise ConfigError("payloads must be non-empty")
    self._check_lba(lba)
    self._check_lba(lba + len(payloads) - 1)
    for offset, payload in enumerate(payloads):
        flat_write(self, lba + offset, payload, stream)


def salamander_write_range(self, mdisk_id: int, lba: int,
                           payloads: list[bytes], stream: int = 0) -> None:
    mdisk = self._active_mdisk(mdisk_id)
    if not payloads or lba < 0 or lba + len(payloads) > mdisk.size_lbas:
        raise ConfigError(
            f"range [{lba}, {lba + len(payloads)}) is empty or exceeds "
            f"mDisk size {mdisk.size_lbas}")
    for offset, payload in enumerate(payloads):
        salamander_write(self, mdisk_id, lba + offset, payload, stream)


def write(device, *address_and_data, stream: int = 0) -> None:
    """The old ``device.write(...)`` for any flavour."""
    if isinstance(device, SalamanderSSD):
        salamander_write(device, *address_and_data, stream=stream)
    else:
        flat_write(device, *address_and_data, stream=stream)


def write_range(device, *address_and_payloads, stream: int = 0) -> None:
    """The old ``device.write_range(...)`` for any flavour."""
    if isinstance(device, SalamanderSSD):
        salamander_write_range(device, *address_and_payloads, stream=stream)
    else:
        flat_write_range(device, *address_and_payloads, stream=stream)

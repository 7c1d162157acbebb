"""The per-LBA ranged read and the per-read chip derivation, kept as the
differential oracle.

These are ``PageMappedFTL.read_range`` and ``FlashChip.read``'s point
and whole-fPage senses (the latter kept here as ``read_fpage``, the
separate method it was) exactly as they stood before the range read
kernel: per LBA a ``buffer.get``, an ``int(self._l2p[target])``, a
``divmod`` and a ``setdefault``; per sense the state probe, the RBER,
the retries and both latency sums derived afresh. The bodies are
verbatim, with two additions — ``read_range`` ticks the autoscrubber
like ``read`` always did (the bug the kernel's PR fixed is fixed on both
sides, so the twins can be compared with autoscrub armed), and it
zero-pads each flash-resident payload it hands back, because the chip
now stores an oPage as written and the FTL is where host reads pad.

``OracleChip.read_fpage`` is the twin of two kernel paths: the
whole-fPage ``FlashChip.read``, and the sense ``read_range`` takes in
its own frame, from the chip's kept read cost, on a chip that draws no
ECC error, records no read disturb, has no fault injector and traces no
sampled request. The oracle's ``read_range`` knows neither and always
calls ``read_fpage``, so the in-place charges (``reads``,
``read_retries``, ``busy_us``, ``channel_busy_us``) are compared against
a per-call derivation.

They are methods of subclasses rather than free functions so that the
flavours' own gates stay in front of them: ``BaselineSSD.read_range``,
``CVSSDevice.read_range`` and ``SalamanderSSD.read_range`` end in
``super().read_range(...)``, and in ``oracle_device_class(flavour)`` —
``class _(flavour, OracleFTL)`` — the next class after the flavour is
:class:`OracleFTL`. ``test_read_kernel.py`` drives a kernel device and
an oracle device (an :class:`OracleFTL` flavour over an
:class:`OracleChip`) through the same calls and compares everything
observable after every one.
"""

from __future__ import annotations

from repro.errors import ConfigError, ProgramError, UncorrectableError
from repro.flash.chip import _STATE_WRITTEN, FlashChip
from repro.ssd.ftl import LOST, UNMAPPED, PageMappedFTL


class OracleChip(FlashChip):
    """A chip whose ``read`` and ``read_fpage`` derive everything per
    call and never consult (or fill) the remembered read costs."""

    def read(self, fpage: int, slot: int) -> tuple[bytes, float]:
        if not 0 <= fpage < self._total_fpages:
            raise IndexError(
                f"fPage {fpage} out of range [0, {self._total_fpages})")
        if int(self._state[fpage]) != _STATE_WRITTEN:
            raise ProgramError(f"fPage {fpage} is not written")
        level = self._level[fpage]
        data_slots = self._data_opages_by_level[level]
        if not 0 <= slot < data_slots:
            raise IndexError(
                f"slot {slot} out of range [0, {data_slots}) for L{level}")
        rber = self._rber_unchecked(fpage)
        self._record_read_disturb(fpage)
        retries = self._read_retries_fast(rber, level)
        latency = ((1.0 + retries) * self.latency.read_us
                   + self._opage_transfer_us)
        self.stats.reads += 1
        self.stats.read_retries += retries
        self._charge(fpage // self._fpages_per_block, latency)
        rt = self._reqtrace
        if rt is not None and rt.active is not None:
            ctx = rt.active
            ctx.note_level(level)
            if retries > 0.0:
                ctx.bump("read_retries", retries)
                ctx.leaf("read_retry", retries * self.latency.read_us)
        if self._faults is not None:
            spec = self._faults.check(
                "chip.read", fpage=fpage, slot=slot,
                block=fpage // self._fpages_per_block)
            if spec is not None:
                if spec.fault == "uncorrectable":
                    self.stats.uncorrectable_reads += 1
                    correctable = self._ecc_t_by_level[level]
                    raise UncorrectableError(
                        f"fPage {fpage} (L{level}): injected uncorrectable "
                        f"read", bit_errors=correctable + 1,
                        correctable=correctable)
                self._corrupt_slot(fpage, slot, spec.args)
        if self.inject_errors and rber > 0:
            ecc = self._ecc_by_level[level]
            correctable = self._ecc_t_by_level[level]
            flipped = int(self.rng.binomial(ecc.codeword_bits, min(rber, 1.0)))
            if flipped > correctable:
                self.stats.uncorrectable_reads += 1
                raise UncorrectableError(
                    f"fPage {fpage} (L{level}, pec={self.pec(fpage)}): "
                    f"{flipped} bit errors exceed t={correctable}",
                    bit_errors=flipped,
                    correctable=correctable,
                )
        return self._data[fpage][slot], latency

    def read_fpage(self, fpage: int) -> tuple[tuple[bytes, ...], float]:
        if not 0 <= fpage < self._total_fpages:
            raise IndexError(
                f"fPage {fpage} out of range [0, {self._total_fpages})")
        if int(self._state[fpage]) != _STATE_WRITTEN:
            raise ProgramError(f"fPage {fpage} is not written")
        level = self._level[fpage]
        data_slots = self._data_opages_by_level[level]
        rber = self._rber_unchecked(fpage)
        self._record_read_disturb(fpage)
        retries = self._read_retries_fast(rber, level)
        latency = ((1.0 + retries) * self.latency.read_us
                   + self._fpage_transfer_us_by_level[level])
        self.stats.reads += 1
        self.stats.read_retries += retries
        self._charge(fpage // self._fpages_per_block, latency)
        rt = self._reqtrace
        if rt is not None and rt.active is not None:
            ctx = rt.active
            ctx.note_level(level)
            if retries > 0.0:
                ctx.bump("read_retries", retries)
                ctx.leaf("read_retry", retries * self.latency.read_us)
        if self._faults is not None:
            # A whole-fPage sense is one hit (one array read on hardware).
            spec = self._faults.check(
                "chip.read", fpage=fpage,
                block=fpage // self._fpages_per_block)
            if spec is not None:
                if spec.fault == "uncorrectable":
                    self.stats.uncorrectable_reads += 1
                    correctable = self._ecc_t_by_level[level]
                    raise UncorrectableError(
                        f"fPage {fpage} (L{level}): injected uncorrectable "
                        f"read", bit_errors=correctable + 1,
                        correctable=correctable)
                slot = int(spec.args.get("slot", 0)) % data_slots
                self._corrupt_slot(fpage, slot, spec.args)
        if self.inject_errors and rber > 0:
            ecc = self._ecc_by_level[level]
            correctable = self._ecc_t_by_level[level]
            flipped = int(self.rng.binomial(ecc.codeword_bits, min(rber, 1.0)))
            if flipped > correctable:
                self.stats.uncorrectable_reads += 1
                raise UncorrectableError(
                    f"fPage {fpage} (L{level}, pec={self.pec(fpage)}): "
                    f"{flipped} bit errors exceed t={correctable}",
                    bit_errors=flipped,
                    correctable=correctable,
                )
        return self._data[fpage][:data_slots], latency


class OracleFTL(PageMappedFTL):
    """An FTL whose ``read_range`` is the per-LBA loop."""

    def read_range(self, lba: int, count: int) -> list[bytes]:
        if count <= 0:
            raise ConfigError(f"count must be positive, got {count!r}")
        self._check_lba(lba)
        self._check_lba(lba + count - 1)
        self.stats.host_reads += count
        self._maybe_autoscrub()     # a line the old body lacked
        # Resolve every LBA first; group flash-resident ones by fPage.
        results: list[bytes | None] = [None] * count
        by_fpage: dict[int, list[tuple[int, int]]] = {}
        for offset in range(count):
            target = lba + offset
            buffered = self.buffer.get(target)
            if buffered is not None:
                results[offset] = buffered.ljust(
                    self.geometry.opage_bytes, b"\0")
                continue
            slot = int(self._l2p[target])
            if slot == UNMAPPED:
                results[offset] = bytes(self.geometry.opage_bytes)
                continue
            if slot == LOST:
                raise UncorrectableError(
                    f"LBA {target}: data lost to an earlier media error",
                    bit_errors=-1, correctable=-1)
            fpage, page_slot = divmod(slot, self._slots_per_fpage_max)
            by_fpage.setdefault(fpage, []).append((offset, page_slot))
        total_latency = 0.0
        for fpage, wanted in by_fpage.items():
            try:
                payloads, latency = self.chip.read_fpage(fpage)
            except UncorrectableError:
                for offset, page_slot in wanted:
                    self._lose_lba(lba + offset,
                                   fpage * self._slots_per_fpage_max
                                   + page_slot)
                raise
            total_latency += latency
            for offset, page_slot in wanted:
                # The other: the FTL pads what the chip stores as written.
                results[offset] = payloads[page_slot].ljust(
                    self.geometry.opage_bytes, b"\0")
        if by_fpage:
            self.stats.read_latency.add(total_latency)
        return [r for r in results if r is not None]


def oracle_device_class(flavour: type[PageMappedFTL]) -> type[PageMappedFTL]:
    """``flavour`` with :class:`OracleFTL` next in line after it, so the
    flavour's ``super().read_range(...)`` lands in the per-LBA loop."""
    if flavour is PageMappedFTL:
        return OracleFTL
    return type(f"Oracle{flavour.__name__}", (flavour, OracleFTL), {})

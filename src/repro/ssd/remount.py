"""Power-loss remount (OOB replay), factored out of the FTL core.

:class:`RemountMixin` carries the mount-time reconstruction path that
:class:`repro.ssd.ftl.PageMappedFTL` mixes in: replay the OOB write
log stamped into every programmed fPage's spare area (highest write
sequence wins per LBA), rebuild block states, and optionally refill
the NVRAM write buffer. Device flavours layer their own remounts on
top (``BaselineSSD.remount`` restores the bad-block ledger first;
``SalamanderSSD.remount`` replays the NVRAM minidisk snapshot).

Split out of ``ftl.py`` purely for readability; behaviour, method
names and replay order are byte-identical (the remount state-equality
property tests pin this), and ``from repro.ssd.ftl import
PageMappedFTL`` keeps working.
"""

from __future__ import annotations

__all__ = ["RemountMixin"]


class RemountMixin:
    """OOB-replay remount methods shared through :class:`PageMappedFTL`."""

    @classmethod
    def remount(cls, chip, n_lbas: int,
                config=None,
                buffer_entries: list[tuple[int, bytes]] | None = None):
        """Reconstruct an FTL from flash contents after power loss.

        Replays the OOB metadata every program stamped into the spare
        area: for each LBA the highest write sequence wins (older copies
        are stale garbage for GC to reclaim). ``buffer_entries`` restores
        the NVRAM write buffer — the paper's buffer is non-volatile, so a
        plain power cycle loses nothing; pass ``None`` to model an NVRAM
        failure, in which case unflushed writes are (correctly) gone.

        Known and accepted semantics: trims are not journaled, so data
        trimmed after its last program *resurrects* on remount — the
        standard behaviour for FTLs without a trim journal.
        """
        ftl = cls(chip, n_lbas, config)
        ftl._attributed("remount", ftl._mount, buffer_entries)
        return ftl

    def _mount(self, buffer_entries) -> None:
        """Rebuild from flash, then refill the NVRAM buffer. Remounts
        run it as ``remount`` work: the OOB replay only reads flash
        today, so remount-cause program/erase counts are ~0."""
        self._rebuild_from_flash()
        # Stream hints are not journaled: restored entries are untagged,
        # that is on stream 0.
        for lba, payload in buffer_entries or ():
            self.buffer.put(lba, payload)

    def _rebuild_from_flash(self) -> None:
        """Mount-time scan: rebuild mapping, counts, and block states."""
        states = self.chip.state_array()
        best_seq: dict[int, int] = {}
        for fpage in range(self.geometry.total_fpages):
            if states[fpage] != 1:  # not WRITTEN
                continue
            oob = self.chip.read_oob(fpage)
            if oob is None:
                continue  # pre-OOB or foreign data; unreadable by this FTL
            lbas, sequence = oob
            self._write_seq = max(self._write_seq, sequence)
            base = fpage * self._slots_per_fpage_max
            for slot, lba in enumerate(lbas):
                if lba is None or not 0 <= lba < self.n_lbas:
                    continue
                if sequence > best_seq.get(lba, -1):
                    best_seq[lba] = sequence
                    self._map(lba, base + slot)
        # Block states: any written page -> closed; all retired -> dead;
        # otherwise free. Partially-written blocks count as closed — their
        # free tail is reclaimed when GC erases them (cheap, and avoids
        # resuming a half-open block with an unknown history).
        self._free_blocks.clear()
        self._open = dict.fromkeys((*self._host_keys, "gc"))
        self._open_required = {}
        per_block = states.reshape(self.geometry.blocks,
                                   self.geometry.fpages_per_block)
        all_retired = (per_block == 2).all(axis=1)
        any_written = (per_block == 1).any(axis=1)
        free: list[int] = []
        for block in range(self.geometry.blocks):
            if all_retired[block]:
                self._dead_blocks.add(block)
            elif any_written[block]:
                self._closed_blocks.add(block)
            elif self._block_usable(block):
                free.append(block)
            else:
                self._dead_blocks.add(block)
        self._free_blocks.add_many(free)

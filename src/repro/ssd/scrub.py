"""Proactive wear scrubbing, factored out of the FTL core.

:class:`ScrubMixin` carries the rolling-cursor wear sweep that
:class:`repro.ssd.ftl.PageMappedFTL` mixes in: examine written fPages,
and when a page's RBER has outgrown its tiredness level's ECC, relocate
its valid oPages *before* a read fails — rather than lazily at the next
erase. The mixin relies on the FTL core for allocation
(``_ensure_free_space``/``_program_items``), the relocation reader
(``_read_live``), the attribution helper (``_attributed``) and the
fault injector binding.

Split out of ``ftl.py`` purely for readability; behaviour, method
names and call order are unchanged (``from repro.ssd.ftl import
PageMappedFTL`` keeps working, and the scrubber is still reached as
``ftl.scrub(...)``).
"""

from __future__ import annotations

from repro.errors import OutOfSpaceError

__all__ = ["ScrubMixin"]


class ScrubMixin:
    """Wear-scrubbing methods shared through :class:`PageMappedFTL`."""

    def scrub(self, max_fpages: int | None = None) -> int:
        """Proactive wear sweep: relocate data off pages past their ECC.

        Walks written pages from a rolling cursor; any page whose current
        RBER exceeds its tiredness level's capability has its valid oPages
        read (while they are still likely correctable) and rewritten
        elsewhere. The drained page is then reclaimed by normal GC, where
        the usual wear handling retires or promotes it.

        Args:
            max_fpages: pages to examine this sweep (None = whole device).

        Returns:
            Number of oPages relocated.
        """
        total = self.geometry.total_fpages
        budget = total if max_fpages is None else min(max_fpages, total)
        relocated = 0
        for _ in range(budget):
            fpage = self._scrub_cursor
            self._scrub_cursor = (self._scrub_cursor + 1) % total
            if not self.chip.is_written(fpage):
                continue
            if not self.chip.is_overworn(fpage):
                continue
            relocated += self._attributed(
                "scrub", self._evacuate_fpage, fpage,
                counter="scrub_evacuations")
        return relocated

    def _evacuate_fpage(self, fpage: int) -> int:
        """Move a written page's valid oPages to fresh flash: scrub's
        burn, and interference to a request it lands inside (the
        sweep runs it under ``_attributed``; a GC pass it forces nests
        under it)."""
        self._ensure_free_space()
        lbas, payloads = self._read_live(fpage, 1)
        if self._faults is not None:
            # Crash between the read and the rewrite: the source page is
            # untouched (reads are non-destructive), so nothing is lost.
            self._faults.crash_if("ftl.scrub", fpage=fpage)
        self._program_items(lbas, payloads, relocation=False)
        self.stats.wear_relocations += len(lbas)
        return len(lbas)

    def _maybe_autoscrub(self) -> None:
        """One tick; the host paths call only if the interval is not 0."""
        interval = self.config.scrub_interval_writes
        if interval == 0:
            return
        self._writes_since_scrub += 1
        if self._writes_since_scrub >= interval:
            self._writes_since_scrub = 0
            try:
                self.scrub(max_fpages=self.config.scrub_batch_fpages)
            except OutOfSpaceError:
                # Scrubbing is best-effort housekeeping; a full device
                # must not fail the host operation that tickled it.
                pass

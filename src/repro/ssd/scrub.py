"""Proactive wear scrubbing, factored out of the FTL core.

:class:`ScrubMixin` carries the rolling-cursor wear sweep that
:class:`repro.ssd.ftl.PageMappedFTL` mixes in: examine written fPages,
and when a page's RBER has outgrown its tiredness level's ECC, relocate
its valid oPages *before* a read fails — rather than lazily at the next
erase. The mixin relies on the FTL core for allocation
(``_ensure_free_space``/``_program_items``), the shared batch reader
(``_read_valid_opages``) and the fault injector binding.

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
            relocated += self._evacuate_fpage(fpage)
        return relocated

    def _evacuate_fpage(self, fpage: int) -> int:
        """Move a written page's valid oPages to fresh flash."""
        led = self._endurance
        if led is None:
            return self._evacuate_fpage_traced(fpage)
        # The rewrite programs are scrub's burn; a GC pass forced by
        # _ensure_free_space nests its own "gc" cause (innermost wins),
        # matching the reqtrace section nesting below.
        with led.cause("scrub"):
            return self._evacuate_fpage_traced(fpage)

    def _evacuate_fpage_traced(self, fpage: int) -> int:
        rt = self._reqtrace
        ctx = rt.active if rt is not None else None
        if ctx is None:
            return self._evacuate_fpage_inner(fpage)
        # Autoscrub triggered inside a sampled request's dispatch: the
        # evacuation (and any GC it forces — nested under "scrub" on
        # the section stack) is interference that request absorbed.
        ctx.enter("scrub", self.chip.stats.busy_us)
        ctx.bump("scrub_evacuations")
        try:
            return self._evacuate_fpage_inner(fpage)
        finally:
            ctx.exit(self.chip.stats.busy_us)

    def _evacuate_fpage_inner(self, fpage: int) -> int:
        self._ensure_free_space()
        moved = self._read_valid_opages(fpage)
        if self._faults is not None:
            # Crash between the read and the rewrite: the source page is
            # untouched (reads are non-destructive), so nothing is lost.
            self._faults.crash_if("ftl.scrub", fpage=fpage)
        self._program_items("gc", moved, relocation=False)
        self.stats.wear_relocations += len(moved)
        return len(moved)

    def _maybe_autoscrub(self) -> None:
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

"""Garbage-collection victim selection.

A page-mapped FTL reclaims space by picking a victim block, relocating its
still-valid oPages, and erasing it. Victim choice drives write
amplification, which in turn drives wear — so lifetime experiments are
sensitive to it. :class:`GreedyGC` picks the block with the fewest valid
oPages — optimal for uniform traffic, the usual default.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro import context
from repro.obs.instruments import gc_instruments


class GCPolicy(ABC):
    """Chooses the next victim block for garbage collection.

    Subclasses implement :meth:`choose_victim`; callers that want the
    pick counted and its utilisation histogrammed (the FTL does) call
    :meth:`pick` instead, which wraps the policy decision with
    observability — and with the ``gc.pick`` fault-injection site, which
    can override the choice (``force_victim``) to steer GC into
    pathological schedules the policies would never produce themselves.
    """

    def __init__(self) -> None:
        self._instr = gc_instruments(policy=type(self).__name__)
        self._faults = context.current().faults

    def pick(self, candidate_blocks: np.ndarray, valid_counts: np.ndarray,
             capacities: np.ndarray) -> int:
        """Instrumented victim selection (same contract as choose_victim)."""
        victim = self.choose_victim(candidate_blocks, valid_counts,
                                    capacities)
        if self._faults is not None:
            spec = self._faults.check("gc.pick", victim=victim)
            if spec is not None:
                # Forced victim: ``args.index`` picks a candidate by
                # position (modulo the candidate count, so any index is
                # valid in any state); without it, the fullest block —
                # the worst case for write amplification.
                index = spec.args.get("index")
                if index is None:
                    victim = int(np.asarray(candidate_blocks)[
                        int(np.argmax(valid_counts))])
                else:
                    victim = int(np.asarray(candidate_blocks)[
                        int(index) % len(candidate_blocks)])
                self._faults.record_degraded("gc_forced_victim")
        position = int(np.argmax(candidate_blocks == victim))
        self._instr.picks.inc()
        self._instr.victim_valid_fraction.observe(
            float(valid_counts[position])
            / float(max(capacities[position], 1)))
        return victim

    @abstractmethod
    def choose_victim(
        self,
        candidate_blocks: np.ndarray,
        valid_counts: np.ndarray,
        capacities: np.ndarray,
    ) -> int:
        """Return the victim block index.

        Args:
            candidate_blocks: indices of closed, erasable blocks.
            valid_counts: valid oPages per candidate (aligned with
                ``candidate_blocks``).
            capacities: usable oPage slots per candidate at current
                tiredness levels (the reclaimable ceiling).

        Implementations may assume ``candidate_blocks`` is non-empty.
        """


class GreedyGC(GCPolicy):
    """Minimum-valid-count victim selection.

    Scoring over large candidate sets goes through ``argpartition`` (no
    full sort) and then resolves the *first* position holding the
    minimum, so the pick is identical to a plain ``argmin`` — position
    tie-breaking is part of the determinism contract.
    """

    #: Candidate count above which argpartition shortlisting kicks in.
    SHORTLIST = 64

    def choose_victim(self, candidate_blocks, valid_counts, capacities):
        if len(valid_counts) > self.SHORTLIST:
            short = np.argpartition(valid_counts, self.SHORTLIST - 1)[
                :self.SHORTLIST]
            floor = valid_counts[short].min()
            return int(candidate_blocks[
                int(np.argmax(valid_counts == floor))])
        return int(candidate_blocks[int(np.argmin(valid_counts))])

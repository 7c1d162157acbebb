"""Garbage-collection victim selection.

A page-mapped FTL reclaims space by picking a victim block, relocating its
still-valid oPages, and erasing it. Victim choice drives write
amplification, which in turn drives wear — so lifetime experiments are
sensitive to it. :class:`GreedyGC` picks the block with the fewest valid
oPages — optimal for uniform traffic, and the FTL's one policy.
"""

from __future__ import annotations

from operator import indexOf
from typing import Callable, Sequence

from repro import context
from repro.obs.instruments import gc_instruments


class GreedyGC:
    """Minimum-valid-count victim selection.

    :meth:`choose_victim` is the decision: the *first* candidate holding
    the minimum valid count (position tie-breaking is part of the
    determinism contract). The FTL calls :meth:`pick`, which wraps it
    with observability (the ``policy`` label of ``repro_gc_*`` is this
    class's name) and with the ``gc.pick`` fault-injection site, which
    can override the choice (``force_victim``) to steer GC into
    pathological schedules the policy would never produce itself.

    Candidates and counts are any sequences: the FTL hands over lists
    (its ascending closed-block list and the counts read from its kept
    ``_valid_counts``), and numpy arrays answer the same way.
    """

    def __init__(self) -> None:
        self._instr = gc_instruments(policy=type(self).__name__)
        self._faults = context.current().faults

    def pick(self, candidate_blocks: Sequence[int],
             valid_counts: Sequence[int],
             capacities: Callable[[int], int]) -> int:
        """Instrumented victim selection (same contract as choose_victim).

        ``capacities`` is called only with metrics scoped, and then for
        the victim alone.
        """
        victim = self.choose_victim(candidate_blocks, valid_counts,
                                    capacities)
        if self._faults is not None:
            spec = self._faults.check("gc.pick", victim=victim)
            if spec is not None:
                # Forced victim: ``args.index`` picks a candidate by
                # position (modulo the candidate count, so any index is
                # valid in any state); without it, the first of the
                # fullest blocks — the worst case for write amplification.
                index = spec.args.get("index")
                position = (indexOf(valid_counts, max(valid_counts))
                            if index is None
                            else int(index) % len(candidate_blocks))
                victim = int(candidate_blocks[position])
                self._faults.record_degraded("gc_forced_victim")
        instr = self._instr
        if instr is not None:
            position = indexOf(candidate_blocks, victim)
            instr.picks.inc()
            instr.victim_valid_fraction.observe(
                float(valid_counts[position])
                / float(max(capacities(victim), 1)))
        return victim

    def choose_victim(self, candidate_blocks: Sequence[int],
                      valid_counts: Sequence[int],
                      capacities: Callable[[int], int]) -> int:
        """Return the victim block index.

        Args:
            candidate_blocks: indices of closed, erasable blocks
                (non-empty).
            valid_counts: valid oPages per candidate (aligned with
                ``candidate_blocks``).
            capacities: a block id's usable oPage slots at current
                tiredness levels (the reclaimable ceiling; greedy
                selection does not read it).
        """
        return int(candidate_blocks[indexOf(valid_counts,
                                            min(valid_counts))])

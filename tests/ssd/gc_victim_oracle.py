"""Test oracle: GC's victim choice as it was made over numpy arrays.

``PageMappedFTL._gc_once`` sweeps and picks over Python lists now — the
closed-block index's ascending list view and the kept ``_valid_counts``
— and reads the victim's capacity alone, only when the pick observes
it. This module keeps the array selection it replaced, as the commit
before had it (less comments; the one-line ``_block_capacities`` it
called is inlined): one ``np.array(self._valid_counts)`` per pass, the
zero-valid sweep through a boolean mask over ``closed.array()``, every
candidate's capacity read, and ``GreedyGC.pick`` with ``np.argmin`` /
``np.argmax`` and a boolean-mask ``argmax`` for the victim's position.

``test_gc_victim.py`` installs :func:`gc_once` on one of two twin
devices and compares every pass. It is a test oracle, not a runtime
path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import OutOfSpaceError


def pick(gc, candidate_blocks: np.ndarray, valid_counts: np.ndarray,
         capacities: np.ndarray) -> int:
    """``GreedyGC.pick`` (with ``choose_victim``) over arrays."""
    victim = int(candidate_blocks[int(np.argmin(valid_counts))])
    if gc._faults is not None:
        spec = gc._faults.check("gc.pick", victim=victim)
        if spec is not None:
            index = spec.args.get("index")
            if index is None:
                victim = int(np.asarray(candidate_blocks)[
                    int(np.argmax(valid_counts))])
            else:
                victim = int(np.asarray(candidate_blocks)[
                    int(index) % len(candidate_blocks)])
            gc._faults.record_degraded("gc_forced_victim")
    instr = gc._instr
    if instr is not None:
        position = int(np.argmax(candidate_blocks == victim))
        instr.picks.inc()
        instr.victim_valid_fraction.observe(
            float(valid_counts[position])
            / float(max(capacities[position], 1)))
    return victim


def gc_once(self) -> None:
    """``PageMappedFTL._gc_once`` over arrays; bind it to a device."""
    candidates = np.array(self._closed_blocks.ordered(), dtype=np.int64)
    valid_arr = np.array(self._valid_counts)  # once per pass
    if candidates.size:
        swept = False
        for block in candidates[valid_arr[candidates] == 0]:
            block = int(block)
            if (not self._block_usable(block)
                    or self._block_is_dead(block)):
                self._closed_blocks.discard(block)
                self._dead_blocks.add(block)
                swept = True
        if swept:
            candidates = np.array(self._closed_blocks.ordered(),
                                  dtype=np.int64)
    if candidates.size == 0:
        raise OutOfSpaceError("no closed blocks to garbage-collect")
    valid = valid_arr[candidates]
    capacities = self.chip.usable_slots_of_blocks(candidates)
    victim = pick(self._gc, candidates, valid, capacities)
    injector = self._faults
    if injector is not None:
        injector.crash_if("gc.pre_relocate", block=int(victim))
    self._relocate_block(victim)
    if injector is not None:
        injector.crash_if("gc.pre_erase", block=int(victim))
    self._erase_block(victim)
    if injector is not None:
        injector.crash_if("gc.post_erase", block=int(victim))

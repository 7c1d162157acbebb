"""Test oracle: the allocator's least-worn pick as it was made over numpy.

``PageMappedFTL._open_new_block`` takes the first free block of least
erase count straight off the free index's ascending list and the chip's
one per-block P/E record. This module keeps what it replaced, as the
commit before had it: :func:`select_min_wear_block` verbatim (it was
``repro.ssd.wear``), called over the free index's int64 array view
(built here from the list, as ``BlockIndex.array`` built it) and the
FTL's own erase counts — a numpy array bumped after every erase the
chip accepts, kept here by :func:`count_erases`.

``test_wear.py`` installs :func:`open_new_block` on one of two twin
devices and compares every block opened. It is a test oracle, not a
runtime path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import OutOfSpaceError


def select_min_wear_block(free_blocks: np.ndarray,
                          erase_counts: np.ndarray) -> int:
    """Pick the free block with the lowest erase count.

    Args:
        free_blocks: indices of blocks with no written pages.
        erase_counts: per-block erase counts for the whole device.

    Raises:
        OutOfSpaceError: when no free block exists.
    """
    if free_blocks.size == 0:
        raise OutOfSpaceError("no free blocks available")
    counts = erase_counts[free_blocks]
    return int(free_blocks[int(np.argmin(counts))])


def count_erases(device) -> np.ndarray:
    """The FTL's erase counts as they were kept: one int64 per block,
    bumped after each erase the chip accepts (an injected erase failure
    raises first and counts nothing). Wraps ``device.chip.erase``."""
    counts = np.zeros(device.geometry.blocks, dtype=np.int64)
    erase = device.chip.erase

    def counted(block: int) -> float:
        latency = erase(block)
        counts[block] += 1
        return latency

    device.chip.erase = counted
    return counts


def open_new_block(self, key: str) -> None:
    """``PageMappedFTL._open_new_block`` over arrays; bind it to a device
    whose ``oracle_erase_counts`` came from :func:`count_erases`."""
    usable = np.array(self._free_blocks.ordered(), dtype=np.int64)
    host = key.startswith("host")
    if host and len(usable) <= self.config.gc_reserve_blocks:
        # Host writes must leave the GC reserve intact.
        usable = usable[:max(0, len(usable)
                             - self.config.gc_reserve_blocks)]
    if usable.size == 0:
        raise OutOfSpaceError(
            "no free blocks available"
            + (" outside the GC reserve" if host else ""))
    block = select_min_wear_block(usable, self.oracle_erase_counts)
    self._free_blocks.discard(block)
    self._open[key] = (block, 0)
    self._open_required[key] = (
        (block, self.chip.required_levels_of_block(block))
        if self.chip.read_disturb_rber == 0 else None)

"""Wear-leveling helpers.

The allocation-side half of wear leveling: when the FTL opens a new block
for writing, prefer the least-worn free block so erase counts stay even.
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

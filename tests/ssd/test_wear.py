"""Unit tests for wear-leveling helpers."""

import numpy as np
import pytest

from repro.errors import OutOfSpaceError
from repro.ssd.wear import select_min_wear_block


class TestSelectMinWear:
    def test_picks_lowest_erase_count(self):
        counts = np.array([5, 1, 9, 0])
        assert select_min_wear_block(np.array([0, 1, 2]), counts) == 1

    def test_only_considers_free_blocks(self):
        counts = np.array([5, 1, 9, 0])
        # Block 3 has the globally lowest count but is not free.
        assert select_min_wear_block(np.array([0, 2]), counts) == 0

    def test_empty_pool_raises(self):
        with pytest.raises(OutOfSpaceError):
            select_min_wear_block(np.array([], dtype=np.int64),
                                  np.array([1, 2]))

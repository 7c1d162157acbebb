"""Unit tests for GC victim selection."""

import numpy as np

from repro.ssd.gc import GreedyGC


class TestGreedy:
    def test_picks_fewest_valid(self):
        policy = GreedyGC()
        victim = policy.choose_victim(
            np.array([3, 5, 9]),
            valid_counts=np.array([10, 2, 7]),
            capacities=np.array([32, 32, 32]))
        assert victim == 5

    def test_tie_breaks_deterministically(self):
        policy = GreedyGC()
        victim = policy.choose_victim(
            np.array([4, 8]),
            valid_counts=np.array([3, 3]),
            capacities=np.array([32, 32]))
        assert victim == 4  # argmin takes the first

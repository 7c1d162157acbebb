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

    def test_many_candidates_with_a_tied_minimum_pick_the_first(self):
        # Above 64 candidates (more blocks than any benchmark device
        # has) the pick is still the first position holding the minimum.
        rng = np.random.default_rng(7)
        valid = rng.integers(5, 60, size=200)
        valid[[37, 91, 150]] = 2
        blocks = np.arange(1000, 1200)
        policy = GreedyGC()
        assert policy.choose_victim(blocks, valid,
                                    np.full(200, 64)) == 1037
        assert policy.pick(blocks, valid, np.full(200, 64)) == 1037

"""Unit tests for replica placement."""

import pytest

from repro.errors import NoPlacementError
from repro.difs.placement import PLACEMENT_POLICIES, VolumeIndex
from repro.difs.volume import MinidiskVolume
from repro.rng import make_rng


@pytest.fixture
def volumes(make_salamander):
    """Six volumes across three nodes (two minidisks per node)."""
    pool = []
    for node in ("n0", "n1", "n2"):
        device = make_salamander()
        for mdisk_id in (0, 1):
            pool.append(MinidiskVolume(
                f"{node}/dev/md{mdisk_id}", node, 4, device, mdisk_id))
    return pool


@pytest.mark.parametrize("placement", sorted(PLACEMENT_POLICIES))
class TestCommonRules:
    def test_distinct_nodes(self, volumes, placement):
        chosen = VolumeIndex(volumes).place(placement, 3, make_rng(0))
        assert len({v.node_id for v in chosen}) == 3

    def test_respects_avoid_nodes(self, volumes, placement):
        chosen = VolumeIndex(volumes).place(placement, 2, make_rng(0),
                                            avoid_nodes={"n0"})
        assert all(v.node_id != "n0" for v in chosen)

    def test_impossible_count_raises(self, volumes, placement):
        with pytest.raises(NoPlacementError):
            VolumeIndex(volumes).place(placement, 4, make_rng(0))

    def test_skips_dead_volumes(self, volumes, placement):
        for volume in volumes:
            if volume.node_id == "n2":
                volume.mark_failed()
        with pytest.raises(NoPlacementError):
            VolumeIndex(volumes).place(placement, 3, make_rng(0))

    def test_skips_full_volumes(self, volumes, placement):
        for volume in volumes:
            if volume.node_id == "n2":
                while volume.allocate_slot() is not None:
                    pass
        chosen = VolumeIndex(volumes).place(placement, 2, make_rng(0))
        assert all(v.node_id != "n2" for v in chosen)


class TestSpreadPolicy:
    def test_prefers_least_loaded(self, volumes):
        # Load up everything on n0/md0 except one slot.
        busy = volumes[0]
        for _ in range(busy.total_slots // 2):
            busy.allocate_slot()
        chosen = VolumeIndex(volumes).place("spread-nodes", 1, make_rng(0),
                                            avoid_nodes={"n1", "n2"})
        assert chosen[0] is volumes[1]  # the empty volume on n0


"""Tests for the wear-aware placement policy (§3.2 open question)."""

import pytest

from repro.difs.placement import PLACEMENT_POLICIES, place_replicas
from repro.difs.volume import MinidiskVolume
from repro.rng import make_rng


@pytest.fixture
def tiered_volumes(make_salamander):
    """Three nodes, each with one fresh (L0) and one regenerated (L1) disk."""
    pool = []
    for node in ("n0", "n1", "n2"):
        device = make_salamander(mode="regen")
        # Fabricate a regenerated minidisk on the device.
        regen = device._table.mint(level=1, seq=5)
        device._grow_flat_space(device.msize_lbas)
        pool.append(MinidiskVolume(f"{node}/fresh", node, 4, device, 0))
        pool.append(MinidiskVolume(f"{node}/tired", node, 4, device,
                                   regen.mdisk_id))
    return pool


class TestWearAware:
    def test_registered(self):
        assert "wear-aware" in PLACEMENT_POLICIES

    def test_prefers_l0_volumes(self, tiered_volumes):
        chosen = place_replicas("wear-aware", tiered_volumes, 3, make_rng(0))
        assert all(volume.level == 0 for volume in chosen)

    def test_falls_back_to_tired_when_l0_full(self, tiered_volumes):
        for volume in tiered_volumes:
            if volume.level == 0:
                while volume.allocate_slot() is not None:
                    pass
        chosen = place_replicas("wear-aware", tiered_volumes, 2, make_rng(0))
        assert all(volume.level == 1 for volume in chosen)

    def test_distinct_nodes_still_enforced(self, tiered_volumes):
        chosen = place_replicas("wear-aware", tiered_volumes, 3, make_rng(0))
        assert len({v.node_id for v in chosen}) == 3

    def test_balances_load_within_tier(self, tiered_volumes):
        fresh = [v for v in tiered_volumes if v.level == 0]
        # Load one fresh volume heavily; the least-loaded L0 wins first.
        for _ in range(fresh[0].total_slots // 2):
            fresh[0].allocate_slot()
        chosen = place_replicas("wear-aware", tiered_volumes, 2, make_rng(0),
                                avoid_nodes={fresh[2].node_id})
        assert chosen[0] is fresh[1]
        # The second pick is forced onto fresh[0]'s node, where the loaded
        # L0 volume still beats the tired one.
        assert chosen[1] is fresh[0]

    def test_usable_as_cluster_policy(self, make_salamander):
        from repro.difs.cluster import Cluster, ClusterConfig
        cluster = Cluster(ClusterConfig(replication=2, chunk_lbas=4,
                                        placement="wear-aware"), seed=3)
        for n in range(3):
            cluster.add_node(f"n{n}")
            cluster.add_device(f"n{n}", make_salamander(seed=n + 1))
        cluster.create_chunk("c0", b"hello")
        assert cluster.read_chunk("c0").rstrip(b"\0") == b"hello"

"""Unit tests for the columnar volume index and the APIs that feed it."""

import pytest

from repro import context
from repro.difs.cluster import Cluster, ClusterConfig
from repro.difs.placement import PLACEMENT_POLICIES, VolumeIndex
from repro.errors import PowerLossError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.salamander.events import MinidiskDecommissioned


def build_cluster(make_salamander, nodes=3, **config):
    cluster = Cluster(ClusterConfig(chunk_lbas=4, **config), seed=11)
    for n in range(nodes):
        cluster.add_node(f"n{n}")
        cluster.add_device(f"n{n}", make_salamander(seed=n + 1))
    return cluster


@pytest.mark.parametrize("placement", sorted(PLACEMENT_POLICIES))
class TestDecommissionFaultWindow:
    """A crash after the mDisk left ACTIVE but before its
    ``MinidiskDecommissioned`` event reached the cluster: the volume is
    dead and nobody was told. An index fed only by events would keep
    placing on it; this one re-reads the device's rows because
    ``event_seq`` moved."""

    def test_placement_skips_and_poll_reports(self, make_salamander,
                                              placement):
        plan = FaultPlan(events=(FaultSpec(
            site="salamander.decommission", fault="crash", when=1),))
        with context.scoped(faults=FaultInjector(plan)):
            # One replica per node, so every chunk must use node n0.
            cluster = build_cluster(make_salamander, replication=3,
                                    placement=placement)
            cluster.create_chunk("before", b"x")
            on_n0 = list(cluster.nodes["n0"].volumes.values())
            victim = next(v for v in on_n0 if v.used_slots == 0)
            # Make the victim the one least-loaded volume on n0: what a
            # stale index would certainly pick.
            for volume in on_n0:
                if volume is not victim and volume.used_slots == 0:
                    volume.allocate_slot()
            device = victim.device
            with pytest.raises(PowerLossError):
                device._decommission(device.minidisk(victim.mdisk_id),
                                     reason="wear")
            assert not any(isinstance(event, MinidiskDecommissioned)
                           for event in device.events)
            assert not victim.is_alive
            assert not cluster.recovery.is_failed(victim.volume_id)

            for i in range(4):
                chunk = cluster.create_chunk(f"after{i}", b"y")
                assert chunk.replica_count == 3
                assert victim.volume_id not in {
                    replica.volume_id for replica in chunk.replicas}
            assert cluster.poll_failures() == 1
            assert cluster.recovery.is_failed(victim.volume_id)
            assert cluster.poll_failures() == 0
            cluster._audit_volume_index()


class TestVolumeIndex:
    def test_population_counts_dead_volumes(self, make_salamander):
        cluster = build_cluster(make_salamander, replication=2)
        volumes = list(cluster.volumes.values())
        volumes[0].mark_failed()
        assert len(VolumeIndex(volumes)) == len(volumes)
        assert cluster.live_volume_count() == len(volumes) - 1

    def test_columns_grow_past_their_first_allocation(self, make_salamander):
        cluster = Cluster(ClusterConfig(replication=2, chunk_lbas=4), seed=1)
        for n in range(12):   # 12 devices x 6+ minidisks > 64 rows
            cluster.add_node(f"n{n}")
            cluster.add_device(f"n{n}", make_salamander(seed=n + 1))
        assert len(cluster.volumes) > 64
        for i in range(20):
            cluster.create_chunk(f"c{i}", b"x")
        cluster._audit_volume_index()

    def test_audit_catches_a_stale_row(self, make_salamander):
        cluster = build_cluster(make_salamander, replication=2)
        volume = next(iter(cluster.volumes.values()))
        volume._free_slots.discard(0)   # behind the index's back
        with pytest.raises(AssertionError, match="key"):
            cluster._audit_volume_index()

    def test_silently_bricked_device_found_by_poll(self, make_baseline,
                                                   make_salamander):
        cluster = build_cluster(make_salamander, replication=2)
        cluster.add_node("mono")
        volume, = cluster.add_device("mono", make_baseline())
        volume.device._failed = True
        assert cluster.live_volume_count() == len(cluster.volumes) - 1
        assert cluster.poll_failures() == 1
        assert cluster.recovery.is_failed(volume.volume_id)


"""Unit tests for the cluster namespace and client paths."""

import pytest

from repro.errors import ChunkLostError, ConfigError
from repro.difs.cluster import Cluster, ClusterConfig


@pytest.fixture
def cluster(make_salamander):
    cluster = Cluster(ClusterConfig(replication=2, chunk_lbas=4), seed=11)
    for n in range(3):
        cluster.add_node(f"n{n}")
        cluster.add_device(f"n{n}", make_salamander(seed=n + 1))
    return cluster


class TestTopology:
    def test_volumes_registered_per_minidisk(self, cluster, make_salamander):
        device = make_salamander()
        count_before = len(cluster.volumes)
        cluster.add_node("n9")
        volumes = cluster.add_device("n9", device)
        assert len(volumes) == len(device.active_minidisks())
        assert len(cluster.volumes) == count_before + len(volumes)

    def test_monolithic_device_is_one_volume(self, cluster, make_baseline):
        cluster.add_node("n8")
        volumes = cluster.add_device("n8", make_baseline())
        assert len(volumes) == 1

    def test_duplicate_node_rejected(self, cluster):
        with pytest.raises(ConfigError):
            cluster.add_node("n0")

    def test_unknown_node_rejected(self, cluster, make_baseline):
        with pytest.raises(ConfigError):
            cluster.add_device("n42", make_baseline())


class TestConfig:
    def test_mistyped_placement_fails_at_construction(self):
        """Not at the first chunk write: the config names the choices."""
        with pytest.raises(ConfigError) as caught:
            ClusterConfig(placement="spred-nodes")
        assert str(caught.value) == (
            "unknown placement policy 'spred-nodes'; choose from "
            "['random', 'spread-nodes', 'wear-aware']")

class TestChunkLifecycle:
    def test_create_and_read(self, cluster):
        cluster.create_chunk("alpha", b"some-bytes")
        data = cluster.read_chunk("alpha")
        assert data.rstrip(b"\0") == b"some-bytes"
        assert len(data) == cluster.config.chunk_bytes

    def test_replication_factor_respected(self, cluster):
        chunk = cluster.create_chunk("alpha", b"x")
        assert chunk.replica_count == 2
        nodes = {cluster.volumes[r.volume_id].node_id
                 for r in chunk.replicas}
        assert len(nodes) == 2

    def test_duplicate_chunk_rejected(self, cluster):
        cluster.create_chunk("alpha", b"x")
        with pytest.raises(ConfigError):
            cluster.create_chunk("alpha", b"y")

    def test_oversized_chunk_rejected(self, cluster):
        with pytest.raises(ConfigError):
            cluster.create_chunk("big", b"x" * (cluster.config.chunk_bytes + 1))

    def test_delete_releases_slots(self, cluster):
        chunk = cluster.create_chunk("alpha", b"x")
        used = [cluster.volumes[r.volume_id].used_slots
                for r in chunk.replicas]
        assert all(u > 0 for u in used)
        cluster.delete_chunk("alpha")
        assert "alpha" not in cluster.namespace
        assert all(v.used_slots == 0 for v in cluster.volumes.values())

    def test_read_unknown_chunk_rejected(self, cluster):
        with pytest.raises(ConfigError):
            cluster.read_chunk("ghost")

    def test_all_replicas_lost_raises_chunk_lost(self, cluster):
        chunk = cluster.create_chunk("alpha", b"x")
        for replica in list(chunk.replicas):
            cluster.volumes[replica.volume_id].mark_failed()
        with pytest.raises(ChunkLostError):
            cluster.read_chunk("alpha")


class TestFailureDetection:
    def test_read_falls_back_to_surviving_replica(self, cluster):
        chunk = cluster.create_chunk("alpha", b"precious")
        first = chunk.replicas[0]
        cluster.volumes[first.volume_id].mark_failed()
        assert cluster.read_chunk("alpha").rstrip(b"\0") == b"precious"
        # The dead replica was forgotten and a repair enqueued.
        assert chunk.replica_on(first.volume_id) is None
        assert cluster.recovery.has_pending

    def test_poll_failures_detects_dead_volumes(self, cluster):
        volume_id = next(iter(cluster.volumes))
        cluster.volumes[volume_id].mark_failed()
        assert cluster.poll_failures() == 1
        assert cluster.poll_failures() == 0  # idempotent

    def test_report_shape(self, cluster):
        cluster.create_chunk("alpha", b"x")
        report = cluster.report()
        assert report["nodes"] == 3
        assert report["chunks"] == 1
        assert report["live_volumes"] == report["volumes"]

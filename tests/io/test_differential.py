"""Cluster-level differential: queued pipeline vs direct device calls.

Two clusters with identical seeds and devices run the same workload —
one through the queued IO pipeline (the only path ``src/`` has), one
with its volumes patched to make the direct device calls of
``tests/difs/direct_io_oracle.py``. Everything observable must be
bit-identical: chunk bytes, placement, every chip's RNG state, wear
counters, and the FTL fast-path invariants. The only difference the
queue is allowed to make is that latencies get measured.
"""

import pytest

from repro.difs.cluster import Cluster, ClusterConfig
from repro.errors import ConfigError

from tests.difs.direct_io_oracle import use_direct_io


def build_cluster(make_baseline, make_cvss, make_salamander,
                  direct: bool = False) -> Cluster:
    config = ClusterConfig(replication=2, chunk_lbas=4, queue_depth=8)
    cluster = Cluster(config, seed=29)
    if direct:
        use_direct_io(cluster)
    cluster.add_node("n0")
    cluster.add_device("n0", make_baseline(seed=1))
    cluster.add_node("n1")
    cluster.add_device("n1", make_cvss(seed=2))
    cluster.add_node("n2")
    cluster.add_device("n2", make_salamander(seed=3))
    cluster.add_node("n3")
    cluster.add_device("n3", make_salamander(seed=4))
    return cluster


def run_workload(cluster: Cluster) -> dict[str, bytes]:
    for i in range(12):
        cluster.create_chunk(f"c{i}", f"chunk-{i}".encode() * 3)
    for i in range(0, 12, 2):
        cluster.update_chunk(f"c{i}", f"update-{i}".encode() * 2)
    cluster.delete_chunk("c11")
    # Fail one volume and let recovery re-replicate off it.
    victim = sorted(cluster.volumes)[0]
    cluster.volumes[victim].mark_failed()
    cluster.poll_failures()
    cluster.run_recovery()
    cluster.audit()
    return {cid: cluster.read_chunk(cid)
            for cid in sorted(cluster.namespace)}


@pytest.fixture
def clusters(make_baseline, make_cvss, make_salamander):
    queued = build_cluster(make_baseline, make_cvss, make_salamander)
    direct = build_cluster(make_baseline, make_cvss, make_salamander,
                           direct=True)
    return queued, direct


def devices_of(cluster: Cluster):
    seen, out = set(), []
    for node in cluster.nodes.values():
        for device in node.devices:
            if id(device) not in seen:
                seen.add(id(device))
                out.append(device)
    return out


class TestDifferential:
    def test_zero_data_path_divergence(self, clusters):
        queued, direct = clusters
        queued_data = run_workload(queued)
        direct_data = run_workload(direct)
        # Byte-identical chunk contents.
        assert queued_data == direct_data
        # Identical placement decisions (cluster RNG in lockstep).
        assert (queued.rng.bit_generator.state
                == direct.rng.bit_generator.state)
        for chunk_id in queued.namespace:
            q_replicas = [(r.volume_id, r.slot, r.index)
                          for r in queued.namespace[chunk_id].replicas]
            d_replicas = [(r.volume_id, r.slot, r.index)
                          for r in direct.namespace[chunk_id].replicas]
            assert q_replicas == d_replicas
        # Every chip took exactly the same RNG draws and wear.
        for q_dev, d_dev in zip(devices_of(queued), devices_of(direct)):
            assert (q_dev.chip.rng.bit_generator.state
                    == d_dev.chip.rng.bit_generator.state)
            assert q_dev.chip.wear_summary() == d_dev.chip.wear_summary()
            q_dev._audit_fastpath()
            d_dev._audit_fastpath()

    def test_direct_mode_is_gone(self):
        with pytest.raises(ConfigError, match="direct path is gone"):
            ClusterConfig(queue_depth=0)

    def test_queued_path_is_default_and_measures(self, clusters):
        queued, direct = clusters
        run_workload(queued)
        run_workload(direct)
        # The oracle really goes around the queues.
        assert direct.io_stats()["dispatched"] == 0
        stats = queued.io_stats()
        assert stats["queues"] == 4
        assert stats["dispatched"] > 0
        assert stats["errors"] == 0
        # Flash reads took simulated time, so the means are real numbers.
        assert stats["mean_latency_us"] > 0.0
        assert stats["mean_service_us"] > 0.0
        # Closed-loop cluster IO never waits (no open-loop arrivals).
        assert stats["mean_wait_us"] == 0.0
        # Deadline accounting aggregates (none set here: zero misses).
        assert stats["deadline_misses"] == 0
        assert stats["deadline_miss_ratio"] == 0.0
        assert queued.report()["io_mean_latency_us"] == pytest.approx(
            stats["mean_latency_us"])

    def test_closed_loop_chunk_io_leaves_no_window_rows(self, clusters):
        # Create, update, read, audit and recovery complete every chunk
        # request before it returns, so no queue window keeps a row (or
        # its payloads) that nothing will ever poll.
        queued, _ = clusters
        run_workload(queued)
        queues = queued.device_queues()
        assert sum(q.stats.dispatched for q in queues) > 0
        for queue in queues:
            assert not queue._inflight
            assert not queue._done
            assert queue.poll() == []

    def test_minidisk_volumes_share_their_device_queue(self, clusters):
        queued, _ = clusters
        by_device = {}
        for volume in queued.volumes.values():
            by_device.setdefault(id(volume.device), set()).add(
                id(volume.queue))
        for queue_ids in by_device.values():
            assert len(queue_ids) == 1

    def test_regenerated_minidisk_joins_device_queue(
            self, make_salamander):
        cluster = Cluster(ClusterConfig(replication=2, chunk_lbas=4,
                                        queue_depth=8), seed=5)
        cluster.add_node("n0")
        device = make_salamander(mode="regen", seed=6)
        cluster.add_device("n0", device)
        queue_before = device.io_queue
        ids_before = set(cluster.volumes)
        # Wear the device until a regeneration happens: the new
        # minidisk's volume must share the existing device queue (the
        # NCQ is a device resource that outlives any one minidisk).
        import numpy as np
        rng = np.random.default_rng(0)
        while device.stats.regenerated_minidisks == 0:
            active = device.active_minidisks()
            mdisk = active[int(rng.integers(0, len(active)))]
            device.write(mdisk.mdisk_id,
                         int(rng.integers(0, mdisk.size_lbas)), b"x")
        new_ids = set(cluster.volumes) - ids_before
        assert new_ids, "regen mode should have registered new volumes"
        for volume_id in new_ids:
            assert cluster.volumes[volume_id].queue is queue_before

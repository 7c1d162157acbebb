"""diFS recovery under injected faults: bounded retry, outages, events.

The cluster binds the scoped injector at construction (like every
other layer), so each test builds its cluster inside
``context.scoped(faults=FaultInjector(plan))``.
"""

from __future__ import annotations

import pytest

from repro import context
from repro.difs.cluster import Cluster, ClusterConfig
from repro.errors import ChunkLostError
from repro.faults import FaultInjector, FaultPlan, FaultSpec


def plan_of(*specs):
    return FaultPlan(events=tuple(specs))


def build_cluster(make_salamander, nodes=4, replication=2):
    cluster = Cluster(ClusterConfig(replication=replication, chunk_lbas=4),
                      seed=11)
    for n in range(nodes):
        cluster.add_node(f"n{n}")
        cluster.add_device(f"n{n}", make_salamander(seed=n + 1))
    return cluster


def fail_first_replica_volume(cluster, chunk_id):
    volume_id = cluster.namespace[chunk_id].replicas[0].volume_id
    cluster.recovery.volume_failed(volume_id)
    return volume_id


class TestRecoveryReadRetry:
    def test_transient_burst_within_budget_succeeds(self, make_salamander):
        # Fail 2 consecutive recovery-read attempts; the default budget
        # (recovery_read_retries=3) absorbs them.
        plan = plan_of(FaultSpec(site="difs.recovery.read", fault="fail",
                                 when=1, count=2))
        with context.scoped(faults=FaultInjector(plan)):
            cluster = build_cluster(make_salamander)
            cluster.create_chunk("c0", b"survives-retries")
            fail_first_replica_volume(cluster, "c0")
            cluster.run_recovery()
            stats = cluster.recovery.stats
            assert cluster.namespace["c0"].replica_count == 2
            assert cluster.read_chunk("c0").rstrip(b"\0") == \
                b"survives-retries"
            assert stats.chunks_lost == 0
            assert stats.read_retries == 2
            # Retries move no data: accounting is exactly one source read
            # plus one replacement write.
            chunk_bytes = cluster.config.chunk_bytes
            assert stats.bytes_read == chunk_bytes
            assert stats.bytes_written == chunk_bytes

    def test_permanently_down_source_loses_chunk_without_hanging(
            self, make_salamander):
        # A burst longer than the retry budget models a source that never
        # comes back: the chunk must be *lost*, not retried forever.
        plan = plan_of(FaultSpec(site="difs.recovery.read", fault="fail",
                                 when=1, count=50))
        with context.scoped(faults=FaultInjector(plan)):
            cluster = build_cluster(make_salamander)
            cluster.create_chunk("c0", b"doomed")
            fail_first_replica_volume(cluster, "c0")
            cluster.run_recovery()  # returns: bounded, never hangs
            stats = cluster.recovery.stats
            assert stats.chunks_lost == 1
            # budget (3) + the failing attempt that exhausted it
            assert stats.read_retries == 4
            assert stats.bytes_read == 0  # failed attempts move no bytes
            assert cluster.namespace["c0"].replica_count == 0
            with pytest.raises(ChunkLostError):
                cluster.read_chunk("c0")

    def test_accounting_matches_fault_free_run(self, make_salamander):
        # Differential accounting: retries must not perturb the traffic
        # totals the paper's recovery argument is built on.
        totals = {}
        for label, events in (
                ("faulty", (FaultSpec(site="difs.recovery.read",
                                      fault="fail", when=1, count=3),)),
                ("clean", ())):
            with context.scoped(faults=FaultInjector(plan_of(*events))):
                cluster = build_cluster(make_salamander)
                for i in range(4):
                    cluster.create_chunk(f"c{i}", f"data-{i}".encode())
                fail_first_replica_volume(cluster, "c0")
                cluster.run_recovery()
                stats = cluster.recovery.stats
                assert stats.chunks_lost == 0
                totals[label] = (stats.bytes_read, stats.bytes_written)
        assert totals["faulty"] == totals["clean"]


class TestRecoveryEventFaults:
    def test_delayed_event_still_converges(self, make_salamander):
        plan = plan_of(FaultSpec(site="difs.recovery.event", fault="delay",
                                 when=1, match={"kind": "volume"}))
        with context.scoped(faults=FaultInjector(plan)):
            cluster = build_cluster(make_salamander)
            cluster.create_chunk("c0", b"late-but-fine")
            fail_first_replica_volume(cluster, "c0")
            cluster.run_recovery()
            assert cluster.namespace["c0"].replica_count == 2
            assert cluster.read_chunk("c0").rstrip(b"\0") == b"late-but-fine"
            summary = context.current().faults.summary()
            assert summary["fired"] == {"difs.recovery.event:delay": 1}

    def test_duplicated_event_is_idempotent(self, make_salamander):
        plan = plan_of(FaultSpec(site="difs.recovery.event",
                                 fault="duplicate", when=1,
                                 match={"kind": "volume"}))
        with context.scoped(faults=FaultInjector(plan)):
            cluster = build_cluster(make_salamander)
            cluster.create_chunk("c0", b"exactly-once")
            fail_first_replica_volume(cluster, "c0")
            cluster.run_recovery()
            stats = cluster.recovery.stats
            # Processed twice, converged once: no extra replicas, no
            # double-counted repair, and the second pass moved no bytes.
            assert cluster.namespace["c0"].replica_count == 2
            assert stats.chunks_recovered == 1
            assert len(stats.events) == 2
            assert stats.events[1].bytes_moved == 0
            assert cluster.read_chunk("c0").rstrip(b"\0") == b"exactly-once"


class TestNodeOutages:
    def _chunk_with_replica_on(self, cluster, node_id):
        for i in range(12):
            cluster.create_chunk(f"c{i}", f"data-{i}".encode())
        for i in range(12):
            chunk = cluster.namespace[f"c{i}"]
            for replica in chunk.replicas:
                if cluster.volumes[replica.volume_id].node_id == node_id:
                    return chunk, replica
        raise AssertionError(f"no replica landed on {node_id}")

    def test_outage_skips_replica_without_forgetting_it(
            self, make_salamander):
        plan = plan_of(FaultSpec(site="difs.node", fault="outage",
                                 when=1, count=1, match={"node": "n0"}))
        with context.scoped(faults=FaultInjector(plan)):
            cluster = build_cluster(make_salamander)
            chunk, replica = self._chunk_with_replica_on(cluster, "n0")
            cluster.poll_failures()  # poll 1: n0 goes dark
            assert context.current().faults.node_down("n0")
            # Reads are served from the other replica; the unreachable
            # one is skipped, not written off.
            data = cluster.read_chunk(chunk.chunk_id)
            assert data.rstrip(b"\0").endswith(b"-" + chunk.chunk_id[1:]
                                               .encode())
            assert replica in chunk.replicas
            assert chunk.replica_count == 2
            cluster.poll_failures()  # poll 2: outage window over
            assert not context.current().faults.node_down("n0")
            assert cluster.read_chunk(chunk.chunk_id) == data

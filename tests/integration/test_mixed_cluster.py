"""Integration: incremental adoption — mixed baseline + Salamander fleets.

The paper argues Salamander "integrates seamlessly into a distributed
storage system": operators should be able to introduce Salamander drives
alongside existing monolithic SSDs without changing the diFS. This test
runs a half-and-half cluster through wear-out and checks that the two
failure granularities coexist: baseline devices fail wholesale (big
recovery events), Salamander devices shed minidisks (small ones), and the
namespace survives as long as placement keeps copies across device types.
"""

import numpy as np
import pytest

import repro.errors as E
from repro.difs.cluster import Cluster, ClusterConfig
from repro.difs.volume import MinidiskVolume, MonolithicVolume
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.ssd.device import BaselineSSD, SSDConfig
from repro.ssd.ftl import FTLConfig


@pytest.fixture(scope="module")
def worn_mixed_cluster():
    geometry = FlashGeometry(blocks=32, fpages_per_block=8)
    policy = TirednessPolicy(geometry=geometry)
    model = calibrate_power_law(policy, pec_limit_l0=14)
    ftl = FTLConfig(overprovision=0.25, buffer_opages=8)
    cluster = Cluster(ClusterConfig(replication=2, chunk_lbas=4), seed=7)
    for n in range(2):
        cluster.add_node(f"mono{n}")
        chip = FlashChip(geometry, rber_model=model, policy=policy,
                         seed=10 + n, variation_sigma=0.3)
        cluster.add_device(f"mono{n}", BaselineSSD(chip, SSDConfig(ftl=ftl)))
    for n in range(2):
        cluster.add_node(f"sala{n}")
        chip = FlashChip(geometry, rber_model=model, policy=policy,
                         seed=20 + n, variation_sigma=0.3)
        cluster.add_device(f"sala{n}", SalamanderSSD(chip, SalamanderConfig(
            msize_lbas=32, mode="regen", headroom_fraction=0.25,
            grace_decommissions=2, ftl=ftl)))
    monolithic = [device for node in ("mono0", "mono1")
                  for device in cluster.nodes[node].devices]
    chunks = 30
    for i in range(chunks):
        cluster.create_chunk(f"c{i}", f"data-{i}".encode())
    rng = np.random.default_rng(1)
    generation = {i: 0 for i in range(chunks)}
    attempted = {i: 0 for i in range(chunks)}
    for round_index in range(25_000):
        # Run until a whole baseline device has died (with minidisk
        # failures accumulating along the way), so both granularities show.
        if any(not device.is_alive for device in monolithic):
            break
        cluster.time = float(round_index)
        i = int(rng.integers(0, chunks))
        try:
            cluster.delete_chunk(f"c{i}")
            attempted[i] = round_index
            cluster.create_chunk(f"c{i}", f"r{round_index}-{i}".encode())
            generation[i] = round_index
        except E.ReproError:
            pass
        cluster.poll_failures()
        cluster.run_recovery()
    return cluster, generation, attempted, chunks


def _readable(cluster, chunk_id: str) -> bool:
    try:
        cluster.read_chunk(chunk_id)
        return True
    except E.ReproError:
        return False


class TestMixedCluster:
    def test_both_failure_granularities_observed(self, worn_mixed_cluster):
        cluster, _, _, _ = worn_mixed_cluster
        failed_ids = [volume_id for volume_id in cluster.volumes
                      if cluster.recovery.is_failed(volume_id)]
        mono_failures = [v for v in failed_ids
                         if isinstance(cluster.volumes.get(v),
                                       MonolithicVolume)]
        mini_failures = [v for v in failed_ids
                         if isinstance(cluster.volumes.get(v),
                                       MinidiskVolume)]
        assert mini_failures, "Salamander minidisks should have failed"
        # Baseline devices brick within this wear budget too.
        assert mono_failures, "a baseline device should have failed"

    def test_monolithic_failures_move_more_per_event(self,
                                                     worn_mixed_cluster):
        cluster, _, _, _ = worn_mixed_cluster
        mono_events, mini_events = [], []
        for event in cluster.recovery.stats.events:
            volume = cluster.volumes.get(event.volume_id)
            if isinstance(volume, MonolithicVolume):
                mono_events.append(event.bytes_moved)
            elif isinstance(volume, MinidiskVolume):
                mini_events.append(event.bytes_moved)
        if mono_events and mini_events:
            assert max(mono_events) >= max(mini_events)

    def test_no_acknowledged_data_lost(self, worn_mixed_cluster):
        cluster, generation, attempted, chunks = worn_mixed_cluster
        assert cluster.recovery.stats.chunks_lost == 0
        for i in range(chunks):
            # A failed create may still be durable (standard semantics):
            # accept the acknowledged generation or the last attempt.
            acceptable = {
                f"r{generation[i]}-{i}".encode() if generation[i]
                else f"data-{i}".encode(),
                f"r{attempted[i]}-{i}".encode() if attempted[i]
                else f"data-{i}".encode(),
            }
            assert cluster.read_chunk(f"c{i}").rstrip(b"\0") in acceptable

    def test_cluster_still_serves_requests(self, worn_mixed_cluster):
        cluster, _, _, chunks = worn_mixed_cluster
        # Fully degraded clusters may no longer have two independent nodes
        # with space; writes may be refused, but reads must keep working.
        try:
            cluster.create_chunk("fresh", b"post-wear write")
        except E.ReproError:
            pass
        else:
            assert cluster.read_chunk("fresh").rstrip(b"\0") == \
                b"post-wear write"
        readable = sum(
            1 for i in range(chunks)
            if _readable(cluster, f"c{i}"))
        assert readable == chunks

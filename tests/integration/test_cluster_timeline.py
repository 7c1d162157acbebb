"""Integration: cluster scenarios on an operations timeline.

A plain timed loop drives periodic client traffic, failure-detection
sweeps and an injected node outage against a Salamander cluster, with
``cluster.time`` carrying the simulated hour into the recovery events.
"""

import numpy as np
import pytest

import repro.errors as E
from repro.difs.cluster import Cluster, ClusterConfig
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.ssd.ftl import FTLConfig
from repro.units import HOUR


def build_cluster(nodes: int = 4, pec_limit: int = 14, seed: int = 7):
    geometry = FlashGeometry(blocks=32, fpages_per_block=8)
    policy = TirednessPolicy(geometry=geometry)
    model = calibrate_power_law(policy, pec_limit_l0=pec_limit)
    ftl = FTLConfig(overprovision=0.25, buffer_opages=8)
    cluster = Cluster(ClusterConfig(replication=2, chunk_lbas=4), seed=seed)
    for n in range(nodes):
        cluster.add_node(f"n{n}")
        chip = FlashChip(geometry, rber_model=model, policy=policy,
                         seed=seed + n, variation_sigma=0.3)
        cluster.add_device(f"n{n}", SalamanderSSD(chip, SalamanderConfig(
            msize_lbas=32, mode="regen", headroom_fraction=0.25,
            grace_decommissions=2, ftl=ftl)))
    return cluster


class TestClusterTimeline:
    def test_timeline_with_traffic_and_maintenance(self):
        cluster = build_cluster()
        rng = np.random.default_rng(3)
        chunks = 30
        for i in range(chunks):
            cluster.create_chunk(f"c{i}", f"data-{i}".encode())
        generation = {i: 0 for i in range(chunks)}
        attempted = {i: 0 for i in range(chunks)}
        write_errors = []

        def client_tick():
            i = int(rng.integers(0, chunks))
            stamp = int(cluster.time)
            try:
                cluster.delete_chunk(f"c{i}")
                attempted[i] = stamp
                cluster.create_chunk(f"c{i}", f"t{stamp}-{i}".encode())
                generation[i] = stamp
            except E.ReproError as error:
                write_errors.append(error)

        def maintenance_tick():
            cluster.poll_failures()
            cluster.run_recovery()

        # A client operation every half hour, a recovery sweep on the
        # hour (before that hour's client operation) — production
        # systems react to failure notifications promptly, and the grace
        # budget only protects a few in-flight decommissions.
        for half_hour in range(1, 2 * 2000 + 1):
            cluster.time = half_hour * 0.5 * HOUR
            if half_hour % 2 == 0:
                maintenance_tick()
            client_tick()
        maintenance_tick()

        # Traffic actually ran and wear events actually happened.
        stats = cluster.recovery.stats
        assert stats.volume_failures > 0
        # Every chunk reads back as its acknowledged generation, or as an
        # unacknowledged-but-durable later attempt (a failed create may
        # still have persisted data — standard storage semantics).
        for i in range(chunks):
            acceptable = {
                f"t{generation[i]}-{i}".encode() if generation[i]
                else f"data-{i}".encode(),
                f"t{attempted[i]}-{i}".encode() if attempted[i]
                else f"data-{i}".encode(),
            }
            assert cluster.read_chunk(f"c{i}").rstrip(b"\0") in acceptable
        assert stats.chunks_lost == 0

    def test_injected_node_outage_recovers_elsewhere(self):
        cluster = build_cluster(pec_limit=200)  # no wear in this scenario
        for i in range(12):
            cluster.create_chunk(f"c{i}", f"data-{i}".encode())

        # Hourly recovery sweeps for a day; node n1 dies at hour 10.
        for hour in range(1, 25):
            cluster.time = hour * HOUR
            if hour == 10:
                for volume in cluster.nodes["n1"].volumes.values():
                    cluster.recovery.volume_failed(volume.volume_id)
            cluster.run_recovery()

        # All data recovered onto the surviving three nodes.
        assert cluster.recovery.stats.chunks_lost == 0
        for i in range(12):
            assert cluster.read_chunk(f"c{i}").rstrip(b"\0") == \
                f"data-{i}".encode()
        for chunk in cluster.namespace.values():
            nodes = {cluster.volumes[r.volume_id].node_id
                     for r in chunk.replicas}
            assert "n1" not in nodes
        # Recovery events carry the simulated timestamps.
        times = [e.time for e in cluster.recovery.stats.events]
        assert times and all(t >= 10 * HOUR for t in times)

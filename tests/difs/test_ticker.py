"""Staged-IO dispatch (ClusterTicker) determinism.

Staged vectors keep per-device submission order and queues dispatch in
staging order, so every chunk payload, namespace record, wear counter
and RNG stream of the batched path is bit-identical to the direct one.
"""

import hashlib
import json

import pytest

from repro.difs.cluster import Cluster, ClusterConfig
from repro.difs.ticker import ClusterTicker
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.ssd.device import BaselineSSD, SSDConfig
from repro.ssd.ftl import FTLConfig


def _run_cluster(**overrides) -> str:
    """The CI determinism fixture: build, write, update, delete, audit."""
    geometry = FlashGeometry(blocks=16, fpages_per_block=8)
    policy = TirednessPolicy(geometry=geometry)
    model = calibrate_power_law(policy, pec_limit_l0=60)
    cluster = Cluster(ClusterConfig(replication=2, chunk_lbas=4,
                                    **overrides), seed=29)
    for index in range(3):
        cluster.add_node(f"n{index}")
        cluster.add_device(f"n{index}", BaselineSSD(
            FlashChip(geometry, rber_model=model, policy=policy,
                      seed=index + 1, variation_sigma=0.3),
            SSDConfig(ftl=FTLConfig(overprovision=0.25, buffer_opages=8,
                                    gc_reserve_blocks=2))))
    for index in range(12):
        cluster.create_chunk(f"c{index}", f"chunk-{index}".encode() * 3)
    for index in range(0, 12, 2):
        cluster.update_chunk(f"c{index}", f"update-{index}".encode() * 2)
    cluster.delete_chunk("c11")
    cluster.audit()
    return json.dumps({
        "chunks": {cid: hashlib.sha256(
                       cluster.read_chunk(cid)).hexdigest()
                   for cid in sorted(cluster.namespace)},
        "namespace": cluster.namespace_snapshot(),
        "wear": cluster.wear_stats(),
        "cluster_rng": str(cluster.rng.bit_generator.state),
    }, indent=1, sort_keys=True, default=str)


class TestBatchedDispatchIdentity:
    @pytest.fixture(scope="class")
    def direct_state(self):
        return _run_cluster(queue_depth=0)

    def test_batched_matches_direct_path(self, direct_state):
        batched = _run_cluster(queue_depth=8, io_batch_chunks=8)
        assert batched == direct_state


class TestTickerMechanics:
    def test_note_without_stage_is_noop(self):
        ticker = ClusterTicker(io_batch_chunks=4)
        assert ticker.note_chunk_staged() is False
        assert ticker.dispatch() == []
        assert not ticker.staged

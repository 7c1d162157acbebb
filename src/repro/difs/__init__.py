"""Distributed-file-system substrate (the paper's *diFS*).

A replicated chunk store in the HDFS/GFS mould, reduced to what the paper's
argument needs: chunks are placed on *volumes* (failure domains), volumes
fail — wholesale for monolithic SSDs, one minidisk at a time for Salamander
— and the recovery manager re-replicates lost chunks from survivors,
accounting every byte of recovery traffic (§4.3).

* :mod:`repro.difs.chunk` — chunks and replica records.
* :mod:`repro.difs.volume` — the volume abstraction + device adapters.
* :mod:`repro.difs.node` — storage nodes grouping volumes.
* :mod:`repro.difs.placement` — replica placement policies.
* :mod:`repro.difs.cluster` — the client-facing namespace.
* :mod:`repro.difs.recovery` — failure handling and traffic accounting.
"""

from repro.difs.chunk import Chunk, Replica
from repro.difs.volume import (
    MinidiskVolume,
    MonolithicVolume,
    Volume,
)
from repro.difs.node import StorageNode
from repro.difs.placement import PLACEMENT_POLICIES, place_replicas
from repro.difs.cluster import Cluster, ClusterConfig
from repro.difs.recovery import RecoveryManager, RecoveryStats
from repro.difs.redundancy import ErasureCoding, RedundancyScheme, Replication
from repro.difs.erasure import ReedSolomon

__all__ = [
    "Chunk",
    "Replica",
    "Volume",
    "MonolithicVolume",
    "MinidiskVolume",
    "StorageNode",
    "place_replicas",
    "PLACEMENT_POLICIES",
    "Cluster",
    "ClusterConfig",
    "RecoveryManager",
    "RecoveryStats",
    "RedundancyScheme",
    "Replication",
    "ErasureCoding",
    "ReedSolomon",
]

"""Data balancing: spreading load onto new (and regenerated) volumes.

When RegenS mints fresh minidisks, or replacement devices join, the new
volumes start empty while old ones run full — so new writes concentrate on
few spindles and the old volumes' failure would hit disproportionately
much data. Production systems run a balancer (HDFS Balancer, Ceph
upmap); this one iteratively moves single units from the most-loaded to
the least-loaded volume, respecting replica/node independence and
accounting migration traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, ReproError


@dataclass
class RebalanceReport:
    """Outcome of one balancing run.

    Attributes:
        moves: units migrated.
        bytes_moved: payload bytes read + written during migration.
        load_spread_before / load_spread_after: max-min volume load.
    """

    moves: int
    bytes_moved: int
    load_spread_before: float
    load_spread_after: float


def _live_volumes(cluster):
    return [v for v in cluster.volumes.values()
            if v.is_alive and v.total_slots > 0]


def _load_spread(volumes) -> float:
    if not volumes:
        return 0.0
    loads = [v.load for v in volumes]
    return max(loads) - min(loads)


def rebalance(cluster, *, max_moves: int = 100,
              tolerance: float = 0.1) -> RebalanceReport:
    """Migrate units until volume loads are within ``tolerance`` of each
    other (or ``max_moves`` is exhausted).

    Each move copies one unit to the least-loaded eligible volume, then
    releases the source copy — write-ahead, so a crash mid-move leaves the
    unit intact somewhere.
    """
    if max_moves < 0:
        raise ConfigError(f"max_moves must be >= 0, got {max_moves!r}")
    if tolerance <= 0:
        raise ConfigError(f"tolerance must be positive, got {tolerance!r}")
    # Migration reads bypass the cluster read path, so dispatch any
    # coalesce-staged request first.
    cluster.flush_io()
    volumes = _live_volumes(cluster)
    before = _load_spread(volumes)
    moves = 0
    bytes_moved = 0
    while moves < max_moves:
        volumes = _live_volumes(cluster)
        if len(volumes) < 2:
            break
        volumes.sort(key=lambda v: v.load)
        target, source = volumes[0], volumes[-1]
        if source.load - target.load <= tolerance:
            break
        moved = _move_one_unit(cluster, source, target)
        if moved == 0:
            break
        moves += 1
        bytes_moved += moved
    return RebalanceReport(
        moves=moves,
        bytes_moved=bytes_moved,
        load_spread_before=before,
        load_spread_after=_load_spread(_live_volumes(cluster)),
    )


def _move_one_unit(cluster, source, target) -> int:
    """Move one unit from ``source`` to ``target``; returns bytes moved."""
    from repro.difs.chunk import Replica

    for chunk_id in sorted(cluster.chunks_on_volume(source.volume_id)):
        chunk = cluster.namespace.get(chunk_id)
        if chunk is None:
            continue
        replica = chunk.replica_on(source.volume_id)
        if replica is None:
            continue
        # Node independence: the target must not already hold this chunk.
        other_nodes = {cluster.volumes[r.volume_id].node_id
                       for r in chunk.replicas
                       if r is not replica and r.volume_id in cluster.volumes}
        if target.node_id in other_nodes:
            continue
        slot = target.allocate_slot()
        if slot is None:
            return 0
        try:
            payloads = source.read_chunk(replica.slot)
            target.write_chunk(slot, payloads)
        except ReproError:
            target.release_slot(slot)
            continue
        new_replica = Replica(volume_id=target.volume_id, slot=slot,
                              index=replica.index)
        cluster.forget_replica(chunk, replica)
        chunk.replicas.append(new_replica)
        cluster._chunks_by_volume[target.volume_id].add(chunk_id)
        return 2 * sum(len(p) for p in payloads)  # read + write
    return 0

"""The cluster: namespace, write/read paths, and device wiring.

This is the client-facing object of the diFS substrate. It owns nodes,
volumes, the chunk namespace, and a :class:`RecoveryManager`. Devices are
attached with :meth:`add_device`, which builds the right volume adapters
and subscribes to device events:

* Salamander ``MinidiskDecommissioned`` -> that minidisk's volume fails;
* Salamander ``MinidiskRegenerated`` -> a fresh volume joins the pool;
* CVSS shrink callbacks -> occupied slots past the new capacity are
  evacuated (partial failure of a monolithic volume);
* baseline devices simply die wholesale, detected on I/O or by
  :meth:`poll_failures`.

Handlers only *enqueue* recovery work; call :meth:`run_recovery` (or let
write/read paths do it) to drain. ``cluster.time`` is a logical timestamp
harnesses set so recovery events can be plotted over time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import context
from repro.errors import (
    ChunkLostError,
    ConfigError,
    RecoveryReadError,
    ReproError,
)
from repro.obs.instruments import difs_instruments
from repro.difs.chunk import Chunk, Replica
from repro.difs.node import StorageNode
from repro.difs.placement import VolumeIndex, place_replicas
from repro.difs.recovery import RecoveryManager
from repro.difs.redundancy import make_scheme
from repro.difs.volume import MinidiskVolume, MonolithicVolume, Volume
from repro.rng import make_rng
from repro.salamander.device import SalamanderSSD
from repro.salamander.events import (
    DeviceExhausted,
    MinidiskDecommissioned,
    MinidiskRegenerated,
)


@dataclass(frozen=True)
class ClusterConfig:
    """diFS-wide settings.

    Attributes:
        replication: copies per chunk (replication scheme).
        chunk_lbas: oPages per chunk (the access unit; production systems
            use 128 MiB — tests scale this down).
        opage_bytes: host page size; must match the devices'.
        placement: policy name from
            :data:`repro.difs.placement.PLACEMENT_POLICIES`.
        redundancy: ``"replication"`` (default) or ``"rs"`` for RS(k, m)
            erasure coding (see :mod:`repro.difs.redundancy`).
        rs_k / rs_m: erasure-coding shape when ``redundancy == "rs"``.
        recovery_read_retries: transient recovery-read failures tolerated
            per unit before the source replica is written off (bounds the
            retry loop under injected ``difs.recovery.read`` faults).
        queue_depth: per-device NCQ depth (>= 1) for the measured IO
            pipeline (:mod:`repro.io`), which carries every chunk.
    """

    replication: int = 3
    chunk_lbas: int = 16
    opage_bytes: int = 4096
    placement: str = "spread-nodes"
    redundancy: str = "replication"
    rs_k: int = 4
    rs_m: int = 2
    recovery_read_retries: int = 3
    queue_depth: int = 8

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ConfigError(
                f"replication must be >= 1, got {self.replication!r}")
        if self.queue_depth < 1:
            raise ConfigError(
                f"queue_depth must be >= 1 (the direct path is gone: "
                f"every chunk goes through a device queue), "
                f"got {self.queue_depth!r}")
        if self.recovery_read_retries < 0:
            raise ConfigError(
                f"recovery_read_retries must be >= 0, "
                f"got {self.recovery_read_retries!r}")
        if self.chunk_lbas <= 0:
            raise ConfigError(
                f"chunk_lbas must be positive, got {self.chunk_lbas!r}")
        if self.opage_bytes <= 0:
            raise ConfigError(
                f"opage_bytes must be positive, got {self.opage_bytes!r}")
        # Validates redundancy/rs_k/rs_m as a side effect.
        self.make_scheme()

    @property
    def chunk_bytes(self) -> int:
        return self.chunk_lbas * self.opage_bytes

    def make_scheme(self):
        return make_scheme(self.redundancy, replication=self.replication,
                           rs_k=self.rs_k, rs_m=self.rs_m)


class Cluster:
    """A replicated chunk store over failure-granular volumes."""

    def __init__(self, config: ClusterConfig | None = None,
                 seed: int | np.random.Generator | None = None) -> None:
        self.config = config or ClusterConfig()
        self.scheme = self.config.make_scheme()
        self.unit_lbas = self.scheme.unit_lbas(self.config.chunk_lbas)
        self.rng = make_rng(seed)
        self.nodes: dict[str, StorageNode] = {}
        self.volumes: dict[str, Volume] = {}
        # Columnar mirror of ``volumes`` (same order); placement, failure
        # polling and the volume counts read it instead of every Volume.
        self._index = VolumeIndex()
        self.namespace: dict[str, Chunk] = {}
        self.recovery = RecoveryManager(self)
        self.time: float = 0.0
        self._chunks_by_volume: dict[str, set[str]] = {}
        self._device_count = 0
        self._audit_cursor = 0
        self._faults = context.current().faults
        self._instr = difs_instruments()

    # -- topology -------------------------------------------------------------------

    def add_node(self, node_id: str) -> StorageNode:
        if node_id in self.nodes:
            raise ConfigError(f"node {node_id} already exists")
        node = StorageNode(node_id)
        self.nodes[node_id] = node
        return node

    def add_device(self, node_id: str, device) -> list[Volume]:
        """Attach a device; returns the volumes it contributed."""
        if node_id not in self.nodes:
            raise ConfigError(f"unknown node {node_id}")
        node = self.nodes[node_id]
        device_name = f"dev{self._device_count}"
        self._device_count += 1
        node.devices.append(device)
        # One submission queue per *device*, attached before its volumes
        # are built (they pick it up from the device): every minidisk
        # volume of a Salamander SSD shares it — the NCQ is a device
        # resource.
        device.attach_queue(depth=self.config.queue_depth)
        if isinstance(device, SalamanderSSD):
            return self._add_salamander(node, device_name, device)
        return [self._add_monolithic(node, device_name, device)]

    def _register(self, node: StorageNode, volume: Volume) -> Volume:
        if volume.volume_id in self.volumes:
            raise ConfigError(f"volume {volume.volume_id} already registered")
        node.add_volume(volume)
        self.volumes[volume.volume_id] = volume
        self._index.add(volume)
        self._chunks_by_volume.setdefault(volume.volume_id, set())
        return volume

    def _add_monolithic(self, node: StorageNode, device_name: str,
                        device) -> Volume:
        volume_id = f"{node.node_id}/{device_name}"
        volume = MonolithicVolume(volume_id, node.node_id,
                                  self.unit_lbas, device)
        self._register(node, volume)
        if hasattr(device, "shrink_listener"):
            device.shrink_listener = (
                lambda new_cap, v=volume: self._on_shrink(v, new_cap))
        return volume

    def _add_salamander(self, node: StorageNode, device_name: str,
                        device: SalamanderSSD) -> list[Volume]:
        volumes = []
        for mdisk in device.active_minidisks():
            volumes.append(self._register_minidisk(
                node, device_name, device, mdisk.mdisk_id))
        device.add_listener(
            lambda event: self._on_salamander_event(
                node, device_name, device, event))
        return volumes

    def _register_minidisk(self, node: StorageNode, device_name: str,
                           device: SalamanderSSD, mdisk_id: int) -> Volume:
        volume_id = f"{node.node_id}/{device_name}/md{mdisk_id}"
        # A regenerated minidisk's volume picks up the same device
        # queue (the NCQ outlives any one minidisk).
        volume = MinidiskVolume(volume_id, node.node_id,
                                self.unit_lbas, device, mdisk_id)
        return self._register(node, volume)

    # -- device event handlers (enqueue only) -------------------------------------------

    def _on_salamander_event(self, node: StorageNode, device_name: str,
                             device: SalamanderSSD, event) -> None:
        if isinstance(event, MinidiskDecommissioned):
            volume_id = f"{node.node_id}/{device_name}/md{event.mdisk_id}"
            if volume_id in self.volumes:
                self.recovery.volume_failed(volume_id)
        elif isinstance(event, MinidiskRegenerated):
            self._register_minidisk(node, device_name, device, event.mdisk_id)
        elif isinstance(event, DeviceExhausted):
            for volume_id, volume in self.volumes.items():
                if getattr(volume, "device", None) is device:
                    self.recovery.volume_failed(volume_id)

    def _on_shrink(self, volume: MonolithicVolume,
                   new_capacity_lbas: int) -> None:
        """CVSS shrank: evacuate chunks whose slots fell off the end."""
        for slot in volume.shrink_to(new_capacity_lbas):
            for chunk_id in sorted(self._chunks_by_volume[volume.volume_id]):
                chunk = self.namespace[chunk_id]
                replica = chunk.replica_on(volume.volume_id)
                if replica is not None and replica.slot == slot:
                    self.forget_replica(chunk, replica, release=False)
                    self.recovery.chunk_degraded(chunk_id)
                    break

    # -- client API ------------------------------------------------------------------------

    def create_chunk(self, chunk_id: str, data: bytes) -> Chunk:
        """Store ``data`` (padded to the chunk size) with full redundancy."""
        if chunk_id in self.namespace:
            raise ConfigError(f"chunk {chunk_id} already exists")
        if len(data) > self.config.chunk_bytes:
            raise ConfigError(
                f"data is {len(data)} bytes; chunks hold "
                f"{self.config.chunk_bytes}")
        chunk = Chunk(chunk_id=chunk_id, size_lbas=self.config.chunk_lbas)
        self.namespace[chunk_id] = chunk
        units = self.scheme.encode(data, self.config.chunk_lbas,
                                   self.config.opage_bytes)
        for index, payloads in enumerate(units):
            self.add_unit(chunk, index, payloads)
        if self._instr is not None:
            self._instr.chunks_created.inc()
        return chunk

    def read_chunk(self, chunk_id: str) -> bytes:
        """Read and decode from surviving units; repairs around bad copies."""
        chunk = self._chunk(chunk_id)
        if self._instr is not None:
            self._instr.chunk_reads.inc()
        units = self.collect_units(chunk)
        if units is None:
            # Record the loss so recovery accounting sees it too.
            self.recovery.chunk_degraded(chunk_id)
            raise ChunkLostError(f"chunk {chunk_id}: too few units survive")
        if len(chunk.indexes_present()) < self.scheme.total_units:
            self.recovery.chunk_degraded(chunk_id)
        return self.scheme.decode(units, self.config.chunk_lbas,
                                  self.config.opage_bytes)

    def update_chunk(self, chunk_id: str, data: bytes) -> Chunk:
        """Rewrite a chunk in place, bumping its version.

        New units are placed and written *before* the old ones are
        released, so a crash mid-update leaves at least one complete
        generation readable (write-ahead discipline). The version counter
        lets audits detect stale replicas.
        """
        chunk = self._chunk(chunk_id)
        if len(data) > self.config.chunk_bytes:
            raise ConfigError(
                f"data is {len(data)} bytes; chunks hold "
                f"{self.config.chunk_bytes}")
        old_replicas = list(chunk.replicas)
        units = self.scheme.encode(data, self.config.chunk_lbas,
                                   self.config.opage_bytes)
        # Place the new generation first. Old replicas' nodes stay
        # eligible: the old generation is about to be released.
        new_replicas: list[Replica] = []
        try:
            for index, payloads in enumerate(units):
                staged = Chunk(chunk_id=f"{chunk_id}#staging",
                               size_lbas=chunk.size_lbas,
                               replicas=new_replicas)
                replica = self._place_and_write(staged, index, payloads)
                new_replicas.append(replica)
        except ReproError:
            # Roll the staged units back; the old generation still rules.
            for replica in new_replicas:
                volume = self.volumes.get(replica.volume_id)
                if volume is not None and volume.is_alive:
                    volume.release_slot(replica.slot)
            raise
        for replica in old_replicas:
            self.forget_replica(chunk, replica)
        for replica in new_replicas:
            chunk.replicas.append(replica)
            self._chunks_by_volume[replica.volume_id].add(chunk_id)
        chunk.version += 1
        return chunk

    def delete_chunk(self, chunk_id: str) -> None:
        chunk = self._chunk(chunk_id)
        for replica in list(chunk.replicas):
            self.forget_replica(chunk, replica)
        del self.namespace[chunk_id]

    def run_recovery(self) -> None:
        """Drain pending failures (see :class:`RecoveryManager`)."""
        self.recovery.run()

    def audit(self, max_chunks: int | None = None) -> dict[str, int]:
        """Background scrub: verify every stored unit, repair the broken.

        Production stores run exactly this (HDFS's block scanner, Ceph's
        deep scrub): periodically *read every unit* — not just one healthy
        copy — so latent failures (worn pages, read disturb, silently dead
        volumes) are found while redundancy still exists, instead of at
        the next client read. Walks the namespace from a rolling cursor;
        ``max_chunks`` bounds one sweep. Returns counters.
        """
        chunk_ids = sorted(self.namespace)
        if not chunk_ids:
            return {"chunks_checked": 0, "units_checked": 0,
                    "units_bad": 0, "repairs_queued": 0}
        budget = len(chunk_ids) if max_chunks is None else \
            min(max_chunks, len(chunk_ids))
        checked = units = bad = queued = 0
        for _ in range(budget):
            index = self._audit_cursor % len(chunk_ids)
            self._audit_cursor += 1
            chunk = self.namespace.get(chunk_ids[index])
            if chunk is None:
                continue
            checked += 1
            degraded = False
            for replica in list(chunk.replicas):
                volume = self.volumes.get(replica.volume_id)
                if volume is None or not volume.is_alive:
                    self.forget_replica(chunk, replica, release=False)
                    bad += 1
                    degraded = True
                    continue
                units += 1
                try:
                    volume.read_chunk(replica.slot)
                except ReproError:
                    self.forget_replica(chunk, replica)
                    bad += 1
                    degraded = True
            if degraded or (len(chunk.indexes_present())
                            < self.scheme.total_units):
                self.recovery.chunk_degraded(chunk.chunk_id)
                queued += 1
        self.recovery.run()
        return {"chunks_checked": checked, "units_checked": units,
                "units_bad": bad, "repairs_queued": queued}

    def poll_failures(self) -> int:
        """Detect silently-dead volumes (e.g. bricked devices); enqueue them.

        Also advances the fault injector's node-outage clock: injected
        ``difs.node`` outages are measured in poll sweeps (a node is down
        for ``count`` consecutive polls). Returns the number of
        newly-detected failures — outages are transient and never count.
        """
        if self._faults is not None:
            self._faults.note_poll()
        found = 0
        for volume in self._index.drain_newly_dead():
            if not self.recovery.is_failed(volume.volume_id):
                self.recovery.volume_failed(volume.volume_id)
                found += 1
        return found

    # -- internals shared with RecoveryManager ------------------------------------------------

    def chunks_on_volume(self, volume_id: str) -> set[str]:
        return set(self._chunks_by_volume.get(volume_id, ()))

    def forget_replica(self, chunk: Chunk, replica: Replica,
                       release: bool = True) -> None:
        """Drop a replica record (and optionally free its slot)."""
        chunk.replicas.remove(replica)
        self._chunks_by_volume[replica.volume_id].discard(chunk.chunk_id)
        volume = self.volumes.get(replica.volume_id)
        if release and volume is not None and volume.is_alive:
            volume.release_slot(replica.slot)

    def collect_units(self, chunk: Chunk,
                      preloaded: dict[int, list[bytes]] | None = None,
                      ) -> dict[int, list[bytes]] | None:
        """Gather ``scheme.min_units`` distinct units, or None if impossible.

        Dead replicas are dropped as they are discovered. Replicas on
        DRAINING minidisk volumes are readable but not alive: they serve as
        a last-resort source under the §4.3 grace period, and are left in
        place for the recovery manager to retire. ``preloaded`` units (e.g.
        read off a draining volume by recovery) count toward the quorum.
        """
        units: dict[int, list[bytes]] = dict(preloaded or {})
        needed = self.scheme.min_units
        injector = self._faults
        # Prefer live replicas, then grace-readable ones; within each pass
        # prefer low indexes (the systematic data units decode fastest).
        for readable_pass in (False, True):
            for replica in sorted(list(chunk.replicas),
                                  key=lambda r: r.index):
                if len(units) >= needed:
                    return units
                if replica.index in units:
                    continue
                volume = self.volumes.get(replica.volume_id)
                if volume is None or not (volume.is_alive
                                          or volume.readable):
                    self.forget_replica(chunk, replica, release=False)
                    continue
                if not volume.is_alive and not readable_pass:
                    continue
                if injector is not None and injector.node_down(
                        volume.node_id):
                    # Transient node outage: the replica is fine, just
                    # unreachable right now — skip it, never forget it.
                    injector.record_degraded("skip_node_outage")
                    continue
                try:
                    units[replica.index] = self._read_unit(
                        volume, replica.slot)
                except ReproError:
                    self.forget_replica(chunk, replica,
                                        release=volume.is_alive)
                    continue
        return units if len(units) >= needed else None

    def _read_unit(self, volume: Volume, slot: int) -> list[bytes]:
        """Read one unit for collection, with bounded retry under faults.

        With no injector scoped this is a plain ``read_chunk``. Each
        attempt the plan fails consumes one ``difs.recovery.read`` site
        hit, so a burst of ``count=n`` means "fail n consecutive
        attempts": ``n <= recovery_read_retries`` succeeds after the
        retries; a longer burst (a permanently-down source) exhausts the
        budget and raises :class:`RecoveryReadError`, which the caller
        handles exactly like any dead replica — the chunk degrades or is
        marked lost rather than hanging. Retries move no data, so the
        byte accounting stays exact.
        """
        injector = self._faults
        if injector is None:
            return volume.read_chunk(slot)
        attempts = 0
        while True:
            spec = injector.check("difs.recovery.read",
                                  volume=volume.volume_id,
                                  node=volume.node_id)
            if spec is None:
                return volume.read_chunk(slot)
            attempts += 1
            self.recovery.stats.read_retries += 1
            injector.record_degraded("recovery_read_retry")
            if attempts > self.config.recovery_read_retries:
                raise RecoveryReadError(
                    f"unit read from {volume.volume_id} failed "
                    f"{attempts} times; source written off")

    def add_unit(self, chunk: Chunk, index: int,
                 payloads: list[bytes]) -> Replica:
        """Place, write and register one unit (copy/fragment) for ``chunk``."""
        replica = self._place_and_write(chunk, index, payloads)
        chunk.replicas.append(replica)
        self._chunks_by_volume[replica.volume_id].add(chunk.chunk_id)
        return replica

    def _place_and_write(self, chunk: Chunk, index: int,
                         payloads: list[bytes]) -> Replica:
        """Placement + durable write, without namespace registration.

        ``chunk`` provides the avoid-node set (its current replicas) and
        the error-message identity; the caller decides when the returned
        replica becomes visible.
        """
        attempts = 5
        while True:
            attempts -= 1
            avoid = self._index.nodes_of(
                replica.volume_id for replica in chunk.replicas)
            volume = place_replicas(
                self.config.placement, self._index, 1,
                self.rng, avoid_nodes=avoid)[0]
            slot = volume.allocate_slot()
            if slot is None:
                if attempts == 0:
                    raise ReproError(
                        f"could not allocate a slot for {chunk.chunk_id}")
                continue
            try:
                volume.write_chunk(slot, payloads)
            except ReproError:
                # The device died or the minidisk vanished mid-write; fail
                # the volume and retry elsewhere.
                self.recovery.volume_failed(volume.volume_id)
                if attempts == 0:
                    raise
                continue
            return Replica(volume_id=volume.volume_id, slot=slot,
                           index=index)

    def _chunk(self, chunk_id: str) -> Chunk:
        chunk = self.namespace.get(chunk_id)
        if chunk is None:
            raise ConfigError(f"unknown chunk {chunk_id}")
        return chunk

    # -- measured IO pipeline ----------------------------------------------------------------------

    def device_queues(self) -> list:
        """Every distinct device submission queue in the cluster."""
        return [volume.queue for volume in self._index.device_heads()]

    def io_stats(self) -> dict[str, float]:
        """Aggregate measured-latency counters across all device queues.

        Means weight every dispatched request equally, so they line up
        with what one ``repro_io_latency_us`` histogram over all devices
        would report.
        """
        queues = self.device_queues()
        dispatched = sum(q.stats.dispatched for q in queues)
        total_latency = sum(q.stats.total_latency_us for q in queues)
        total_wait = sum(q.stats.total_wait_us for q in queues)
        total_service = sum(q.stats.total_service_us for q in queues)
        deadline_misses = sum(q.stats.deadline_misses for q in queues)
        return {
            "queues": len(queues),
            "submitted": sum(q.stats.submitted for q in queues),
            "dispatched": dispatched,
            # A request is one dispatch, so nothing merges; recorded
            # cluster stats documents (and their digests) carry the key.
            "merged": 0,
            "errors": sum(q.stats.errors for q in queues),
            "deadline_misses": deadline_misses,
            "deadline_miss_ratio": (deadline_misses / dispatched
                                    if dispatched else 0.0),
            "mean_latency_us": (total_latency / dispatched
                                if dispatched else 0.0),
            "mean_wait_us": total_wait / dispatched if dispatched else 0.0,
            "mean_service_us": (total_service / dispatched
                                if dispatched else 0.0),
        }

    # -- reporting --------------------------------------------------------------------------------

    def total_capacity_bytes(self) -> int:
        return sum(v.capacity_lbas() for v in self._index.live_volumes()
                   ) * self.config.opage_bytes

    def live_volume_count(self) -> int:
        return self._index.live_count()

    def _audit_volume_index(self) -> None:
        """Assert the volume index equals a recomputation from
        ``volumes`` (docs/PERFORMANCE.md); ``AssertionError`` otherwise.
        """
        assert self._index.volumes == list(self.volumes.values()), (
            "volume index order diverged from the registration order")
        self._index.audit()

    def report(self) -> dict[str, float]:
        return {
            "nodes": len(self.nodes),
            "volumes": len(self.volumes),
            "live_volumes": self.live_volume_count(),
            "chunks": len(self.namespace),
            "capacity_bytes": self.total_capacity_bytes(),
            "volume_failures": self.recovery.stats.volume_failures,
            "chunks_recovered": self.recovery.stats.chunks_recovered,
            "chunks_lost": self.recovery.stats.chunks_lost,
            "recovery_bytes": self.recovery.stats.bytes_moved,
            "io_mean_latency_us": self.io_stats()["mean_latency_us"],
        }

"""Failure recovery and traffic accounting (paper §4.3).

When a failure domain dies — a whole baseline SSD, or a single minidisk —
every chunk that had a replica there must be re-replicated from survivors.
The manager drains a queue (device events may fire mid-operation, so
handlers only enqueue) and accounts every byte moved, which is the quantity
the paper's recovery-traffic argument is about: Salamander's per-minidisk
failures move the *same total LBAs* as one big failure, just spread over
time — and RegenS adds traffic for the shorter-lived regenerated capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import context
from repro.errors import NoPlacementError, ReproError
from repro.obs.instruments import difs_instruments


@dataclass
class RecoveryEvent:
    """One processed failure-domain loss.

    Attributes:
        time: cluster logical time when processed.
        volume_id: the failure domain that died.
        chunks_recovered / chunks_lost: outcome counts.
        bytes_moved: recovery traffic (source reads + replica writes).
    """

    time: float
    volume_id: str
    chunks_recovered: int
    chunks_lost: int
    bytes_moved: int


@dataclass
class RecoveryStats:
    """Cumulative recovery accounting.

    ``read_retries`` counts transient recovery-read failures that were
    retried (injected faults); retries move no data, so they appear here
    and *not* in ``bytes_read``.
    """

    volume_failures: int = 0
    chunks_recovered: int = 0
    chunks_lost: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_retries: int = 0
    events: list[RecoveryEvent] = field(default_factory=list)

    @property
    def bytes_moved(self) -> int:
        return self.bytes_read + self.bytes_written


class RecoveryManager:
    """Processes volume failures and degraded chunks for a cluster.

    Args:
        cluster: the owning :class:`repro.difs.cluster.Cluster`; used for
            namespace lookups, placement and chunk I/O.
    """

    def __init__(self, cluster) -> None:
        self._cluster = cluster
        self.stats = RecoveryStats()
        ctx = context.current()
        self._faults = ctx.faults
        self._tracer = ctx.tracer
        self._pending_volumes: list[str] = []
        self._pending_chunks: list[str] = []
        self._failed_volumes: set[str] = set()
        self._instr = difs_instruments()
        # Enqueue timestamps (cluster time), parallel to the pending lists;
        # their difference at dequeue is the degraded dwell time.
        self._pending_volume_times: list[float] = []
        self._pending_chunk_times: list[float] = []

    def _set_queue_gauges(self) -> None:
        self._instr.queue_depth.labels(kind="volume").set(
            len(self._pending_volumes))
        self._instr.queue_depth.labels(kind="chunk").set(
            len(self._pending_chunks))

    # -- enqueue (safe to call from device event listeners) ------------------------

    def volume_failed(self, volume_id: str) -> None:
        """Enqueue a failure-domain loss (idempotent)."""
        if volume_id in self._failed_volumes:
            return
        self._failed_volumes.add(volume_id)
        volume = self._cluster.volumes.get(volume_id)
        if volume is not None:
            volume.mark_failed()
        self._pending_volumes.append(volume_id)
        self._pending_volume_times.append(self._cluster.time)
        self.stats.volume_failures += 1
        self._instr.volume_failures.inc()
        self._set_queue_gauges()

    def is_failed(self, volume_id: str) -> bool:
        """Whether this failure domain's loss was already enqueued."""
        return volume_id in self._failed_volumes

    def chunk_degraded(self, chunk_id: str) -> None:
        """Enqueue a single under-replicated chunk."""
        self._pending_chunks.append(chunk_id)
        self._pending_chunk_times.append(self._cluster.time)
        self._set_queue_gauges()

    @property
    def has_pending(self) -> bool:
        return bool(self._pending_volumes or self._pending_chunks)

    # -- drain ----------------------------------------------------------------------

    def run(self) -> None:
        """Process all pending failures (including ones raised meanwhile)."""
        guard = 10_000
        while self.has_pending:
            if guard == 0:
                raise ReproError(
                    "recovery did not converge; failure feedback loop")
            guard -= 1
            if self._pending_volumes:
                volume_id = self._pending_volumes.pop(0)
                enqueued = self._pending_volume_times.pop(0)
                if self._event_fault("volume", volume_id,
                                     self._pending_volumes,
                                     self._pending_volume_times, enqueued):
                    continue
                self._instr.degraded_dwell.labels(kind="volume").observe(
                    self._cluster.time - enqueued)
                self._set_queue_gauges()
                with self._tracer.span("difs.recover_volume",
                                       volume=volume_id):
                    self._recover_volume(volume_id)
            elif self._pending_chunks:
                chunk_id = self._pending_chunks.pop(0)
                enqueued = self._pending_chunk_times.pop(0)
                if self._event_fault("chunk", chunk_id,
                                     self._pending_chunks,
                                     self._pending_chunk_times, enqueued):
                    continue
                self._instr.degraded_dwell.labels(kind="chunk").observe(
                    self._cluster.time - enqueued)
                self._set_queue_gauges()
                with self._tracer.span("difs.repair_chunk", chunk=chunk_id):
                    self._repair_chunk(chunk_id, record=None)

    def _event_fault(self, kind: str, item_id: str, queue: list[str],
                     times: list[float], enqueued: float) -> bool:
        """Apply an injected ``difs.recovery.event`` fault to one dequeue.

        ``delay`` re-appends the item (dwell time keeps accruing from the
        original enqueue) and skips it this round; ``duplicate`` re-appends
        it *and* processes it now — recovery handlers are idempotent, so a
        duplicated event must converge to the same state (the fault tests
        assert exactly that). Returns True when processing should be
        skipped.
        """
        if self._faults is None:
            return False
        spec = self._faults.check("difs.recovery.event",
                                  kind=kind, id=item_id)
        if spec is None:
            return False
        queue.append(item_id)
        times.append(enqueued)
        self._set_queue_gauges()
        if spec.fault == "delay":
            self._faults.record_degraded("recovery_event_delayed")
            return True
        self._faults.record_degraded("recovery_event_duplicated")
        return False

    def _recover_volume(self, volume_id: str) -> None:
        cluster = self._cluster
        volume = cluster.volumes.get(volume_id)
        chunk_ids = sorted(cluster.chunks_on_volume(volume_id))
        event = RecoveryEvent(
            time=cluster.time, volume_id=volume_id,
            chunks_recovered=0, chunks_lost=0, bytes_moved=0)
        before = self.stats.bytes_moved
        for chunk_id in chunk_ids:
            chunk = cluster.namespace.get(chunk_id)
            if chunk is None:
                continue
            replica = chunk.replica_on(volume_id)
            source_units = None
            if replica is not None:
                # Grace period (§4.3): the dying volume itself is the best
                # source — local, and possibly the last surviving unit.
                if volume is not None and volume.readable:
                    try:
                        source_units = {
                            replica.index: cluster._read_unit(
                                volume, replica.slot)}
                    except ReproError:
                        source_units = None
                cluster.forget_replica(chunk, replica, release=False)
            recovered = self._repair_chunk(chunk_id, record=event,
                                           source=source_units)
            if recovered:
                event.chunks_recovered += 1
        event.bytes_moved = self.stats.bytes_moved - before
        self.stats.events.append(event)
        if volume is not None and getattr(volume, "is_draining", False):
            # Everything re-replicated; end the minidisk's grace period.
            volume.release_after_drain()

    def _repair_chunk(self, chunk_id: str,
                      record: RecoveryEvent | None,
                      source: dict[int, list[bytes]] | None = None) -> bool:
        """Restore a chunk to full redundancy; returns success.

        Reads ``min_units`` surviving units (erasure coding's repair
        amplification shows up here: k reads per repair), rebuilds every
        missing unit, and places each on an independent volume.
        """
        cluster = self._cluster
        chunk = cluster.namespace.get(chunk_id)
        if chunk is None:
            return False
        scheme = cluster.scheme
        if len(chunk.indexes_present()) >= scheme.total_units:
            return True
        units = cluster.collect_units(chunk, preloaded=source)
        if units is None:
            self.stats.chunks_lost += 1
            self._instr.chunks_lost.inc()
            if record is not None:
                record.chunks_lost += 1
            return False
        # Compute the gaps AFTER collection: collect_units drops replicas
        # it discovers dead, and those holes must be rebuilt in this pass
        # (their volumes' own recovery sweeps no longer know the chunk).
        missing = [index for index in range(scheme.total_units)
                   if index not in chunk.indexes_present()]
        if not missing:
            return True
        read_bytes = sum(
            sum(len(page) for page in pages) for pages in units.values())
        self.stats.bytes_read += read_bytes
        self._instr.recovery_bytes.labels(direction="read").inc(read_bytes)
        recovered = False
        for index in missing:
            payloads = scheme.rebuild(index, units,
                                      cluster.config.chunk_lbas,
                                      cluster.config.opage_bytes)
            try:
                cluster.add_unit(chunk, index, payloads)
            except NoPlacementError:
                # Cluster too degraded/full for full redundancy; leave the
                # chunk degraded rather than spinning.
                break
            written = sum(len(p) for p in payloads)
            self.stats.bytes_written += written
            self._instr.recovery_bytes.labels(
                direction="write").inc(written)
            recovered = True
        if recovered:
            self.stats.chunks_recovered += 1
            self._instr.chunks_recovered.inc()
        return True

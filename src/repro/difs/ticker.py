"""Staged-IO dispatch for the cluster data path.

:class:`ClusterTicker` holds the batch-submission mechanics of
:class:`repro.difs.cluster.Cluster`: staging chunk writes into one
:class:`repro.io.vector.IOVector` per device queue, closing the
batching window, and dispatching every staged vector. What stays on the
coordinator (the ``Cluster``) is everything that needs the global
object graph — placement, recovery orchestration, namespace
bookkeeping, rebalance, census.

One staged queue's dispatch is ``queue.execute_vector(vector)`` and
touches nothing outside that queue's device; queues are dispatched in
staging order, in-process (they hold live device object graphs — FTL
state, flash arrays — that no worker could rebuild from a seed).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.difs.volume import Volume


class ClusterTicker:
    """Per-queue chunk-write staging and in-order dispatch.

    The ticker owns no recovery policy: :meth:`dispatch` returns the
    ``(volume_id, slot, error)`` failures in canonical order and the
    coordinator applies volume-failure and repair effects.
    """

    def __init__(self, io_batch_chunks: int) -> None:
        self.io_batch_chunks = io_batch_chunks
        # Staging order is dict insertion order, keyed by queue
        # identity: one append-only vector per device queue.
        self._stage: dict[int, list] = {}
        self._staged_chunks = 0

    @property
    def staged(self) -> bool:
        return bool(self._stage)

    def stage_chunk_write(self, volume: "Volume", slot: int,
                          payloads: list[bytes]) -> bool:
        """Stage one chunk write for batched dispatch; False = write now.

        Staged requests keep per-device submission order (one
        append-only vector per queue), so the dispatched op sequence
        is identical to the unbatched path.
        """
        if self.io_batch_chunks == 0 or volume.queue is None:
            return False
        from repro.io.vector import IOVector

        request = volume.chunk_write_request(slot, payloads)
        stage = self._stage.get(id(volume.queue))
        if stage is None:
            stage = [volume.queue, IOVector(), []]
            self._stage[id(volume.queue)] = stage
        _, vector, members = stage
        vector.append(request.op, lba=request.lba, count=request.count,
                      payloads=request.payloads, mdisk_id=request.mdisk_id,
                      stream=request.stream)
        members.append((volume.volume_id, slot))
        return True

    def note_chunk_staged(self) -> bool:
        """Count one staged chunk; True = the batching window is full."""
        if not self._stage:
            return False
        self._staged_chunks += 1
        return self._staged_chunks >= self.io_batch_chunks

    def dispatch(self) -> list[tuple[str, int, Exception]]:
        """Execute every staged vector; return failures in global order.

        Queues are dispatched in staging order. Per-member errors do
        not raise (the batch keeps going, exactly as independent scalar
        submissions would); the caller fails volumes and queues repair.
        """
        stages = list(self._stage.values())
        self._stage.clear()
        self._staged_chunks = 0
        failed: list[tuple[str, int, Exception]] = []
        for queue, vector, members in stages:
            completions = queue.execute_vector(vector)
            for index, (volume_id, slot) in enumerate(members):
                error = completions.errors[index]
                if error is not None:
                    failed.append((volume_id, slot, error))
        return failed


__all__ = ["ClusterTicker"]

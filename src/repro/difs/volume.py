"""Volumes: the failure domains the diFS places replicas on.

The paper's central interface change is here. A *baseline* SSD is one big
volume — when it bricks, every chunk on it needs recovery at once. A
Salamander SSD instead contributes one volume per minidisk, "so that as
minidisks fail, distributed storage systems can continue using the
remaining good capacity".

Volumes also own chunk-slot allocation: a volume formatted for
``chunk_lbas``-sized chunks exposes ``capacity_lbas // chunk_lbas`` slots.
The ``Volume`` object is the source of truth for slots and liveness; a
cluster's :class:`repro.difs.placement.VolumeIndex` mirrors them as
columns, and every method here that changes ``used_slots``,
``total_slots`` or ``_failed`` pushes the volume's row to the attached
index (``allocate_slot``, ``release_slot``, ``mark_failed``,
``shrink_to``). Device-side deaths are not pushed — the
index reads them off the device (see that module).

Chunk IO goes through the device's :class:`repro.io.queue.DeviceQueue`
(``volume.queue`` — the one a cluster attached, or the device's own
default): a write is one ``write`` dispatch, a read one ``read_range``
dispatch, each measured (wait/service/latency) into the queue's stats.
They enter through :meth:`~repro.io.queue.DeviceQueue.dispatch`, the
field-level synchronous entry: the volume addresses its own device, so
no ``IORequest`` is built or checked per unit, and a closed-loop chunk
completes before the call returns, so it leaves no row in the queue's
window. The queue makes one ``write_range`` / ``read_range`` device
call per chunk; ``tests/difs/direct_io_oracle.py`` makes those calls
directly and the differential conformance suite pins the two
bit-identical.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import ConfigError, ReproError
from repro.io.request import OP_READ_RANGE, OP_WRITE
from repro.salamander.device import SalamanderSSD


class Volume(ABC):
    """A failure domain with slot-granular space management.

    Adapters set ``self.device`` (the backing device, the unit the
    volume index polls for liveness) before calling this constructor.

    Args:
        volume_id: cluster-unique name.
        node_id: the storage node this volume lives on.
        chunk_lbas: oPages per chunk slot.
    """

    def __init__(self, volume_id: str, node_id: str, chunk_lbas: int) -> None:
        if chunk_lbas <= 0:
            raise ConfigError(
                f"chunk_lbas must be positive, got {chunk_lbas!r}")
        self.volume_id = volume_id
        self.node_id = node_id
        self.chunk_lbas = chunk_lbas
        #: The device's submission queue, shared by all its volumes.
        self.queue = self.device.io_queue
        self._failed = False
        self.total_slots = self.capacity_lbas() // chunk_lbas
        self._free_slots = set(range(self.total_slots))
        self._index = None
        self._index_row = -1

    # -- device plumbing (adapter responsibility) --------------------------------

    @abstractmethod
    def capacity_lbas(self) -> int:
        """Current volume capacity in oPages."""

    @abstractmethod
    def device_alive(self) -> bool:
        """Whether the backing device still serves this volume."""

    # -- slot management ------------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        return not self._failed and self.device_alive()

    @property
    def readable(self) -> bool:
        """Whether reads still work even if the volume left service.

        Plain volumes die atomically; minidisk volumes override this for
        the §4.3 grace period (DRAINING minidisks keep serving reads).
        """
        return self.is_alive

    @property
    def used_slots(self) -> int:
        return self.total_slots - len(self._free_slots)

    @property
    def load(self) -> float:
        """Fraction of slots in use (placement balances on this)."""
        if self.total_slots == 0:
            return 1.0
        return self.used_slots / self.total_slots

    def attach_index(self, index, row: int) -> None:
        """Mirror this volume's slot/failure state into ``index[row]``."""
        self._index = index
        self._index_row = row

    def _push_row(self) -> None:
        if self._index is not None:
            self._index.update(self._index_row, self.used_slots,
                               self.total_slots, self._failed)

    def allocate_slot(self) -> int | None:
        """Reserve a chunk slot, or None when full/dead."""
        if not self.is_alive or not self._free_slots:
            return None
        slot = min(self._free_slots)
        self._free_slots.discard(slot)
        self._push_row()
        return slot

    def release_slot(self, slot: int) -> None:
        self._check_slot(slot)
        self._free_slots.add(slot)
        self._push_row()

    def mark_failed(self) -> None:
        """Administratively fail the volume (device event or detection)."""
        self._failed = True
        self._push_row()

    # -- chunk I/O ---------------------------------------------------------------------

    #: Minidisk address space chunk requests target (``None`` = flat).
    _io_mdisk_id: int | None = None

    def write_chunk(self, slot: int, payloads: list[bytes]) -> None:
        """Write one chunk (one oPage payload per LBA) into ``slot``.

        One synchronous ``write`` dispatch on the device queue: the
        device's error raises here exactly as a direct range write
        would, and the completed write leaves nothing in the window.
        """
        self._check_slot(slot)
        if len(payloads) != self.chunk_lbas:
            raise ConfigError(
                f"chunk needs {self.chunk_lbas} payloads, got {len(payloads)}")
        error = self.queue.dispatch(
            OP_WRITE, slot * self.chunk_lbas, self.chunk_lbas, payloads,
            self._io_mdisk_id)[1]
        if error is not None:
            raise error

    def read_chunk(self, slot: int) -> list[bytes]:
        """Read one chunk's payloads; raises device errors through.

        One synchronous, measured ``read_range`` dispatch: the device's
        scatter-gather path (one sense per touched fPage), so
        system-level large-read performance inherits the §4.2
        ``P/(P-L)`` behaviour. Like a write, it leaves nothing in the
        queue's window.
        """
        self._check_slot(slot)
        result, error = self.queue.dispatch(
            OP_READ_RANGE, slot * self.chunk_lbas, self.chunk_lbas, None,
            self._io_mdisk_id)[:2]
        if error is not None:
            raise error
        return result

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.total_slots:
            raise ConfigError(
                f"slot {slot} out of range [0, {self.total_slots}) "
                f"on {self.volume_id}")


class MonolithicVolume(Volume):
    """A whole baseline/CVSS SSD as a single failure domain.

    For shrinking devices (CVSS) :meth:`slots_beyond` reports which occupied
    slots fell off the advertised capacity so the cluster can evacuate them.
    """

    def __init__(self, volume_id: str, node_id: str, chunk_lbas: int,
                 device) -> None:
        self.device = device
        super().__init__(volume_id, node_id, chunk_lbas)

    def capacity_lbas(self) -> int:
        # The BlockDevice protocol guarantees this attribute; no more
        # duck-typed fallbacks to FTL internals.
        return self.device.capacity_lbas

    def device_alive(self) -> bool:
        return self.device.is_alive

    def shrink_to(self, new_capacity_lbas: int) -> list[int]:
        """Apply a device shrink; returns occupied slots now out of range."""
        new_slots = max(0, new_capacity_lbas // self.chunk_lbas)
        if new_slots >= self.total_slots:
            return []
        evicted = [slot for slot in range(new_slots, self.total_slots)
                   if slot not in self._free_slots]
        self._free_slots = {s for s in self._free_slots if s < new_slots}
        self.total_slots = new_slots
        self._push_row()
        return evicted


class MinidiskVolume(Volume):
    """One Salamander minidisk as an independent failure domain."""

    def __init__(self, volume_id: str, node_id: str, chunk_lbas: int,
                 device: SalamanderSSD, mdisk_id: int) -> None:
        self.device = device
        self.mdisk_id = mdisk_id
        self._io_mdisk_id = mdisk_id
        self._mdisk = device.minidisk(mdisk_id)
        super().__init__(volume_id, node_id, chunk_lbas)

    @property
    def level(self) -> int:
        """Tiredness level of the backing pages (performance hint, §4.2)."""
        return self._mdisk.level

    def capacity_lbas(self) -> int:
        return self._mdisk.size_lbas

    def device_alive(self) -> bool:
        return self.device.is_alive and self._mdisk.is_active

    @property
    def readable(self) -> bool:
        # A genuinely DRAINING minidisk stays readable through its grace
        # period even though the cluster has marked the volume failed; an
        # administratively failed volume (crash, unreachable node) is not.
        if self.is_draining:
            return self.device.is_alive
        return self.is_alive

    @property
    def is_draining(self) -> bool:
        from repro.salamander.minidisk import MinidiskStatus
        return self._mdisk.status is MinidiskStatus.DRAINING

    def release_after_drain(self) -> bool:
        """Tell the device the diFS is done with this draining minidisk.

        Returns whether a release actually happened (the device may have
        force-released it already under space pressure).
        """
        if not self.device.is_alive or not self.is_draining:
            return False
        self.device.release_minidisk(self.mdisk_id)
        return True

"""Replica placement policies over a columnar volume index.

Given the volume population, choose where a chunk's replicas go. Every
policy refuses to co-locate two replicas of one chunk on the same *node*
(the standard host-level fault isolation); they differ in how they pick
among eligible volumes:

* ``"spread-nodes"`` — least-loaded volume on each of the least-loaded
  eligible nodes; keeps utilisation even as capacity shrinks.
* ``"random"`` — uniformly random eligible volumes (on distinct nodes);
  the classic baseline, useful to show placement sensitivity in ablations.
* ``"wear-aware"`` — youngest tiredness tier first, least-loaded within it.

A Salamander SSD contributes one volume per minidisk, so the population
is hundreds of volumes for a handful of devices, and a placement that
asks every ``Volume`` whether it is alive, full and how loaded costs more
than the IO it places. :class:`VolumeIndex` keeps that answer as numpy
columns in registration order — the placement ``key`` (the load
``used / total`` of a live volume with a free slot, ``+inf`` for every
other), a sticky ``dead`` flag, and ``node`` / ``device`` / ``level``
codes — plus the rows of each node as one array. A pick is one copy of
``key`` with the avoided nodes' rows set to ``+inf``, one
``np.minimum.reduce`` and one ``nonzero`` for the tie set, and the one
``rng.integers`` draw.

The columns stay exact without polling volumes because liveness is
*monotone*: an administratively failed volume, a non-ACTIVE minidisk and
a dead device never come back. Volumes push their own row on every slot
or failure change, and :meth:`VolumeIndex.refresh` (run before every
read of the ``dead`` column) asks each *device* one ``is_alive`` and one
change-counter question, re-reading that device's rows only when the
counter moved. ``SalamanderSSD.event_seq`` increments before every
decommission, regeneration and exhaustion, so this also catches a
minidisk that left service without its host event being delivered (a
crash between the two). Devices without a counter (baseline, CVSS) have
no per-volume liveness beyond ``is_alive``.

The pre-index scan lives on as ``tests/difs/placement_oracle.py``; the
index picks the same volumes from the same ordered tie set with the same
RNG draws.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.errors import NoPlacementError
from repro.difs.volume import Volume

#: Column -> fill value of the rows a doubling adds.
_COLUMNS = {"_key": np.inf, "_dead": False, "_node": 0, "_device": 0,
            "_level": 0}


class _DeviceWatch:
    """One live device the index polls: its code and last-seen counter."""

    __slots__ = ("device", "code", "seq")

    def __init__(self, device, code: int) -> None:
        self.device = device
        self.code = code
        self.seq = getattr(device, "event_seq", 0)


class VolumeIndex:
    """Registration-ordered columnar view of a volume population.

    ``VolumeIndex(volumes)`` snapshots a plain sequence (a throw-away
    index: the volumes are read once and not told about it);
    :meth:`add` registers a volume *and* attaches the index to it so the
    volume pushes its row from then on — the form
    :class:`repro.difs.cluster.Cluster` owns.
    """

    def __init__(self, volumes: Iterable[Volume] = ()) -> None:
        self.volumes: list[Volume] = []
        # One row per volume; grown by doubling (see _COLUMNS).
        self._key = np.full(64, np.inf)   # load if live and not full
        self._dead = np.zeros(64, dtype=np.bool_)     # sticky
        self._node = np.zeros(64, dtype=np.int32)     # -> _node_names
        self._device = np.zeros(64, dtype=np.int32)   # -> _device_heads
        self._level = np.zeros(64, dtype=np.int64)    # tiredness tier
        self._row_of: dict[str, int] = {}
        self._node_names: list[str] = []
        self._node_rows: list[np.ndarray] = []   # rows of each node code
        self._node_codes: dict[str, int] = {}
        self._device_codes: dict[int, int] = {}
        self._device_heads: list[int] = []   # first row of each device
        self._watched: list[_DeviceWatch] = []
        self._newly_dead: list[int] = []
        for volume in volumes:
            self._append(volume)

    def __len__(self) -> int:
        """The candidate population: every registered volume, dead or not."""
        return len(self.volumes)

    # -- registration ---------------------------------------------------------

    def add(self, volume: Volume) -> None:
        """Register ``volume`` and have it push its row from now on."""
        volume.attach_index(self, self._append(volume))

    def _append(self, volume: Volume) -> int:
        row = len(self.volumes)
        if row == len(self._key):
            for name, fill in _COLUMNS.items():
                column = getattr(self, name)
                setattr(self, name, np.concatenate(
                    [column, np.full_like(column, fill)]))
        self.volumes.append(volume)
        self._row_of[volume.volume_id] = row
        node = self._node_codes.setdefault(volume.node_id,
                                           len(self._node_names))
        if node == len(self._node_names):
            self._node_names.append(volume.node_id)
            self._node_rows.append(np.empty(0, dtype=np.intp))
        self._node_rows[node] = np.append(self._node_rows[node], row)
        device = self._device_codes.setdefault(id(volume.device),
                                               len(self._device_heads))
        if device == len(self._device_heads):
            self._device_heads.append(row)
            self._watched.append(_DeviceWatch(volume.device, device))
        self._node[row] = node
        self._device[row] = device
        self._level[row] = getattr(volume, "level", 0)
        self.update(row, volume.used_slots, volume.total_slots,
                    not volume.is_alive)
        return row

    def update(self, row: int, used: int, total: int, dead: bool) -> None:
        """A volume's own view of its row (``dead`` only ever rises)."""
        if self._dead[row]:
            return
        if dead:
            self._bury(row)
        else:
            self._key[row] = used / total if used < total else np.inf

    # -- liveness -------------------------------------------------------------

    def refresh(self) -> None:
        """Fold device-side deaths into ``dead``: two reads per device."""
        watched = []
        for watch in self._watched:
            device = watch.device
            if not device.is_alive:
                # Dead for good: bury its rows and stop watching it.
                for row in self._live_rows_of(watch.code):
                    self._bury(row)
                continue
            watched.append(watch)
            seq = getattr(device, "event_seq", 0)
            if seq != watch.seq:
                watch.seq = seq
                for row in self._live_rows_of(watch.code):
                    if not self.volumes[row].device_alive():
                        self._bury(row)
        self._watched = watched

    def _live_rows_of(self, device: int) -> list[int]:
        n = len(self.volumes)
        return np.flatnonzero((self._device[:n] == device)
                              & ~self._dead[:n]).tolist()

    def _bury(self, row: int) -> None:
        self._dead[row] = True
        self._key[row] = np.inf
        self._newly_dead.append(row)

    def drain_newly_dead(self) -> list[Volume]:
        """Volumes whose ``dead`` flag rose since the last drain, in
        registration order (the order a full scan would meet them)."""
        self.refresh()
        rows, self._newly_dead = sorted(self._newly_dead), []
        return [self.volumes[row] for row in rows]

    def live_volumes(self) -> list[Volume]:
        self.refresh()
        n = len(self.volumes)
        return [self.volumes[row]
                for row in np.flatnonzero(~self._dead[:n]).tolist()]

    def live_count(self) -> int:
        self.refresh()
        n = len(self.volumes)
        return n - int(np.count_nonzero(self._dead[:n]))

    # -- topology -------------------------------------------------------------

    def device_heads(self) -> list[Volume]:
        """The first-registered volume of every distinct device."""
        return [self.volumes[row] for row in self._device_heads]

    def nodes_of(self, volume_ids: Iterable[str]) -> set[str]:
        """Nodes hosting the given volumes (unknown ids are skipped)."""
        row_of, volumes = self._row_of, self.volumes
        return {volumes[row_of[volume_id]].node_id
                for volume_id in volume_ids if volume_id in row_of}

    # -- placement ------------------------------------------------------------

    def place(self, policy: str, count: int, rng: np.random.Generator,
              avoid_nodes: Iterable[str] = ()) -> list[Volume]:
        """``count`` eligible volumes on distinct nodes outside ``avoid_nodes``."""
        ties = PLACEMENT_POLICIES[policy]
        self.refresh()
        # Eligible rows keep their load; the avoided nodes' go to +inf.
        key = self._key[:len(self.volumes)].copy()
        avoid = set(avoid_nodes)
        for name in avoid:
            code = self._node_codes.get(name)
            if code is not None:
                key[self._node_rows[code]] = np.inf
        chosen: list[Volume] = []
        while True:
            best = ties(self, key)
            if not len(best):
                raise NoPlacementError(
                    f"cannot place replica {len(chosen) + 1}/{count}: "
                    f"no eligible volume outside nodes {sorted(avoid)}")
            row = int(best[int(rng.integers(0, len(best)))])
            volume = self.volumes[row]
            chosen.append(volume)
            if len(chosen) == count:    # the last pick masks nothing
                return chosen
            avoid.add(volume.node_id)
            key[self._node_rows[self._node_codes[volume.node_id]]] = np.inf

    # -- invariant ------------------------------------------------------------

    def audit(self) -> None:
        """Assert every column equals the O(n) recomputation from the
        ``Volume`` objects (the ``_audit_fastpath`` idiom of
        docs/PERFORMANCE.md). Raises ``AssertionError`` on divergence.
        """
        for row, volume in enumerate(self.volumes):
            assert not (self._dead[row] and volume.is_alive), (
                f"row {row} ({volume.volume_id}) marked dead while alive")
        self.refresh()
        for row, volume in enumerate(self.volumes):
            where = f"row {row} ({volume.volume_id})"
            assert self._row_of[volume.volume_id] == row, where
            assert self._dead[row] == (not volume.is_alive), f"{where}: dead"
            assert self._node_names[self._node[row]] == volume.node_id, (
                f"{where}: node")
            head = self.volumes[self._device_heads[self._device[row]]]
            assert head.device is volume.device, f"{where}: device"
            assert self._level[row] == getattr(volume, "level", 0), (
                f"{where}: level")
            eligible = (volume.is_alive
                        and volume.used_slots < volume.total_slots)
            assert self._key[row] == (volume.load if eligible else np.inf), (
                f"{where}: key")
        n = len(self.volumes)
        assert (self._key[n:] == np.inf).all(), "a spare row has a finite key"
        for code, rows in enumerate(self._node_rows):
            assert rows.tolist() == np.flatnonzero(
                self._node[:n] == code).tolist(), (
                f"node {self._node_names[code]}: row array")
        assert all(self._dead[row] for row in self._newly_dead), (
            "a live row is queued as newly dead")


def _least_loaded(index: VolumeIndex, key: np.ndarray) -> np.ndarray:
    low = np.minimum.reduce(key, initial=np.inf)
    if low == np.inf:
        return _NONE
    return (key <= low + 1e-9).nonzero()[0]


def _uniform(index: VolumeIndex, key: np.ndarray) -> np.ndarray:
    return (key != np.inf).nonzero()[0]


def _youngest_least_loaded(index: VolumeIndex,
                           key: np.ndarray) -> np.ndarray:
    """Prefer young (low-tiredness) volumes; balance load within a tier.

    Addresses the paper's §3.2 open question about correlated mDisk
    failures: regenerated (L1+) minidisks are short-lived, so stacking
    multiple units of one chunk on them multiplies the chance of losing
    several units in one wear episode. This policy drains the L0 tier
    first and reaches for tired volumes only when nothing younger fits.
    """
    level = index._level[:len(key)]
    eligible = key != np.inf
    if not eligible.any():
        return _NONE
    youngest = level[eligible].min()
    return _least_loaded(index, np.where(level == youngest, key, np.inf))


_NONE = np.empty(0, dtype=np.intp)

#: Policy name -> tie set: given a copy of the ``key`` column with every
#: ineligible row at ``+inf``, the rows (registration order) the pick is
#: drawn uniformly from; empty when no row is eligible.
PLACEMENT_POLICIES: dict[str, Callable[[VolumeIndex, np.ndarray],
                                       np.ndarray]] = {
    "spread-nodes": _least_loaded,
    "random": _uniform,
    "wear-aware": _youngest_least_loaded,
}


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
columns in registration order — ``used``, ``total``, ``load``, a sticky
``dead`` flag, and ``node`` / ``device`` / ``level`` codes — so
eligibility is one boolean mask and the tie set one ``flatnonzero``.

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

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import ConfigError, NoPlacementError
from repro.difs.volume import Volume

_COLUMNS = ("_used", "_total", "_load", "_dead", "_node", "_device", "_level")


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
        self._used = np.zeros(64, dtype=np.int64)
        self._total = np.zeros(64, dtype=np.int64)
        self._load = np.zeros(64, dtype=np.float64)   # used / total
        self._dead = np.zeros(64, dtype=np.bool_)     # sticky
        self._node = np.zeros(64, dtype=np.int32)     # -> _node_names
        self._device = np.zeros(64, dtype=np.int32)   # -> _device_heads
        self._level = np.zeros(64, dtype=np.int64)    # tiredness tier
        self._row_of: dict[str, int] = {}
        self._node_names: list[str] = []
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
        if row == len(self._used):
            for name in _COLUMNS:
                column = getattr(self, name)
                setattr(self, name, np.concatenate(
                    [column, np.zeros_like(column)]))
        self.volumes.append(volume)
        self._row_of[volume.volume_id] = row
        node = self._node_codes.setdefault(volume.node_id,
                                           len(self._node_names))
        if node == len(self._node_names):
            self._node_names.append(volume.node_id)
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
        self._used[row] = used
        self._total[row] = total
        self._load[row] = used / total if total else 1.0
        if dead and not self._dead[row]:
            self._bury(row)

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
        rows = [self._row_of[volume_id] for volume_id in volume_ids
                if volume_id in self._row_of]
        return {self._node_names[code] for code in self._node[rows].tolist()}

    # -- placement ------------------------------------------------------------

    def place(self, policy: str, count: int, rng: np.random.Generator,
              avoid_nodes: Iterable[str] = ()) -> list[Volume]:
        """``count`` eligible volumes on distinct nodes outside ``avoid_nodes``."""
        ties = PLACEMENT_POLICIES[policy]
        self.refresh()
        n = len(self.volumes)
        node = self._node[:n]
        eligible = ~self._dead[:n] & (self._used[:n] < self._total[:n])
        avoid = set(avoid_nodes)
        for name in avoid:
            if name in self._node_codes:
                eligible &= node != self._node_codes[name]
        chosen: list[Volume] = []
        for _ in range(count):
            rows = np.flatnonzero(eligible)
            if rows.size == 0:
                raise NoPlacementError(
                    f"cannot place replica {len(chosen) + 1}/{count}: "
                    f"no eligible volume outside nodes {sorted(avoid)}")
            best = ties(self, rows)
            row = best[int(rng.integers(0, len(best)))]
            chosen.append(self.volumes[row])
            avoid.add(chosen[-1].node_id)
            eligible &= node != node[row]
        return chosen

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
            assert self._used[row] == volume.used_slots, f"{where}: used"
            assert self._total[row] == volume.total_slots, f"{where}: total"
            assert self._load[row] == volume.load, f"{where}: load"
            assert self._dead[row] == (not volume.is_alive), f"{where}: dead"
            assert self._node_names[self._node[row]] == volume.node_id, (
                f"{where}: node")
            head = self.volumes[self._device_heads[self._device[row]]]
            assert head.device is volume.device, f"{where}: device"
            assert self._level[row] == getattr(volume, "level", 0), (
                f"{where}: level")
        assert all(self._dead[row] for row in self._newly_dead), (
            "a live row is queued as newly dead")


def _least_loaded(index: VolumeIndex, rows: np.ndarray) -> np.ndarray:
    load = index._load[rows]
    return rows[load <= load.min() + 1e-9]


def _uniform(index: VolumeIndex, rows: np.ndarray) -> np.ndarray:
    return rows


def _youngest_least_loaded(index: VolumeIndex,
                           rows: np.ndarray) -> np.ndarray:
    """Prefer young (low-tiredness) volumes; balance load within a tier.

    Addresses the paper's §3.2 open question about correlated mDisk
    failures: regenerated (L1+) minidisks are short-lived, so stacking
    multiple units of one chunk on them multiplies the chance of losing
    several units in one wear episode. This policy drains the L0 tier
    first and reaches for tired volumes only when nothing younger fits.
    """
    level = index._level[rows]
    return _least_loaded(index, rows[level == level.min()])


#: Policy name -> tie set: the eligible rows (registration order) the
#: pick is drawn uniformly from.
PLACEMENT_POLICIES: dict[str, Callable[[VolumeIndex, np.ndarray],
                                       np.ndarray]] = {
    "spread-nodes": _least_loaded,
    "random": _uniform,
    "wear-aware": _youngest_least_loaded,
}


def place_replicas(policy: str, volumes: Sequence[Volume] | VolumeIndex,
                   count: int, rng: np.random.Generator,
                   avoid_nodes: Iterable[str] = ()) -> list[Volume]:
    """Choose ``count`` volumes on distinct nodes for one chunk.

    Args:
        policy: a key of :data:`PLACEMENT_POLICIES`.
        volumes: the volume population — a cluster's live
            :class:`VolumeIndex`, or any sequence of volumes (indexed
            once for this call).
        count: replicas to place.
        rng: randomness source (ties/uniform choice).
        avoid_nodes: nodes already holding replicas of this chunk.

    Raises:
        NoPlacementError: when fewer than ``count`` independent volumes
            with free slots exist.
    """
    if policy not in PLACEMENT_POLICIES:
        raise ConfigError(
            f"unknown placement policy {policy!r}; "
            f"choose from {sorted(PLACEMENT_POLICIES)}")
    if count <= 0:
        raise ConfigError(f"count must be positive, got {count!r}")
    if not isinstance(volumes, VolumeIndex):
        volumes = VolumeIndex(volumes)
    return volumes.place(policy, count, rng, avoid_nodes)

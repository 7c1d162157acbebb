"""Minidisk objects: the failure-granular logical units (paper §3.2).

An mDisk is "only a logical abstraction": an independent LBA range that the
distributed file system treats as a tiny drive. Physically its LBAs may map
to any oPage on the device; what makes it a *failure domain* is that the
device decommissions capacity in whole-mDisk units.

:class:`MinidiskTable` is the one owner of that lifecycle: it holds the
device's minidisks and keeps the census the host path reads (active set,
advertised capacity, DRAINING FIFO) in step with every transition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import ConfigError


class MinidiskStatus(Enum):
    ACTIVE = "active"
    DRAINING = "draining"          # decommissioned but data kept readable
    DECOMMISSIONED = "decommissioned"


@dataclass
class Minidisk:
    """One logical minidisk.

    Attributes:
        mdisk_id: stable identifier; also fixes the flat LBA base
            (``mdisk_id * size_lbas``) inside the device's mapping array.
        size_lbas: LBAs (oPages) in this mDisk (``mSize / 4 KiB``).
        level: tiredness level of the pages this mDisk was created from —
            0 for the original population, ``j`` for an mDisk regenerated
            out of limbo pages at level ``j`` (the paper assumes uniform
            tiredness per mDisk).
        created_seq: device event sequence at creation (for lifetime stats).
        status / decommissioned_seq: lifecycle bookkeeping.
    """

    mdisk_id: int
    size_lbas: int
    level: int = 0
    created_seq: int = 0
    status: MinidiskStatus = MinidiskStatus.ACTIVE
    decommissioned_seq: int | None = None

    def __post_init__(self) -> None:
        if self.mdisk_id < 0:
            raise ConfigError(f"mdisk_id must be >= 0, got {self.mdisk_id!r}")
        if self.size_lbas <= 0:
            raise ConfigError(
                f"size_lbas must be positive, got {self.size_lbas!r}")
        if self.level < 0:
            raise ConfigError(f"level must be >= 0, got {self.level!r}")

    @property
    def is_active(self) -> bool:
        return self.status is MinidiskStatus.ACTIVE

    @property
    def is_readable(self) -> bool:
        """Whether reads are still served (active, or draining under the
        §4.3 grace period while the diFS re-replicates)."""
        return self.status in (MinidiskStatus.ACTIVE,
                               MinidiskStatus.DRAINING)

    @property
    def flat_base(self) -> int:
        """First flat LBA of this mDisk in the device's mapping array."""
        return self.mdisk_id * self.size_lbas

    def flat_lba(self, lba: int) -> int:
        """Translate an mDisk-relative LBA to the device's flat index."""
        if not 0 <= lba < self.size_lbas:
            raise ConfigError(
                f"LBA {lba} out of mDisk range [0, {self.size_lbas})")
        return self.flat_base + lba

    def flat_range(self, lba: int, count: int) -> int:
        """First flat LBA of the mDisk-relative range ``[lba, lba +
        count)``, which must be non-empty and inside the mDisk."""
        if count <= 0 or lba < 0 or lba + count > self.size_lbas:
            raise ConfigError(
                f"range [{lba}, {lba + count}) is empty or exceeds "
                f"mDisk size {self.size_lbas}")
        return self.flat_base + lba


class MinidiskTable:
    """The device's minidisk census, kept rather than recounted.

    One object owns the minidisk table and everything derived from it —
    the active set, the advertised capacity and the DRAINING FIFO — and
    changes them together, at the lifecycle transition itself. The
    device reads ``active`` and ``advertised_lbas`` on every host write,
    so they are stored values, not scans of ``minidisks``;
    :meth:`mint`, :meth:`decommission`, :meth:`release` and
    :meth:`restore` are the only code that assigns a
    :attr:`Minidisk.status` or appends a minidisk. The census is NVRAM
    state like the table it summarises: it is never keyed on the
    device's ``event_seq``, which moves *before* the status does
    (``docs/PERFORMANCE.md``, "Kept state and the audits that hold it").

    Attributes:
        size_lbas: mSize in oPages, shared by every minidisk.
        minidisks: every minidisk the device ever had; the index is the
            ``mdisk_id``.
        active: the ACTIVE minidisks in ``mdisk_id`` order, replaced (not
            mutated) on change so a reader may hold on to it.
        advertised_lbas: oPages across ``active``.
        draining: FIFO of DRAINING mdisk ids (the §4.3 grace period).
    """

    __slots__ = ("size_lbas", "minidisks", "active", "advertised_lbas",
                 "draining")

    def __init__(self, size_lbas: int, count: int = 0) -> None:
        self.size_lbas = size_lbas
        self.minidisks = [Minidisk(mdisk_id=i, size_lbas=size_lbas)
                          for i in range(count)]
        self.draining: list[int] = []
        self._recount()

    def restore(self, rows, draining) -> None:
        """Rebuild the table and its census in place from :meth:`rows`
        after power loss; ``draining`` is the persisted FIFO, whose order
        the rows cannot give back."""
        self.minidisks = [
            Minidisk(mdisk_id=mdisk_id, size_lbas=size, level=level,
                     created_seq=created, status=MinidiskStatus(status),
                     decommissioned_seq=decommissioned)
            for (mdisk_id, size, level, created, status, decommissioned)
            in rows]
        self.draining = list(draining)
        self._recount()

    def rows(self) -> list[tuple]:
        """The table as plain NVRAM rows (what :meth:`restore` reads)."""
        return [(m.mdisk_id, m.size_lbas, m.level, m.created_seq,
                 m.status.value, m.decommissioned_seq)
                for m in self.minidisks]

    def _recount(self) -> None:
        self.active = tuple(m for m in self.minidisks if m.is_active)
        self.advertised_lbas = sum(m.size_lbas for m in self.active)

    def mint(self, level: int, seq: int) -> Minidisk:
        """Append a new ACTIVE minidisk (RegenS revival, §3.4)."""
        mdisk = Minidisk(mdisk_id=len(self.minidisks),
                         size_lbas=self.size_lbas, level=level,
                         created_seq=seq)
        self.minidisks.append(mdisk)
        self.active += (mdisk,)
        self.advertised_lbas += mdisk.size_lbas
        return mdisk

    def decommission(self, mdisk: Minidisk, seq: int, *,
                     draining: bool = False) -> None:
        """Take an ACTIVE minidisk out of service — immediately, or into
        the DRAINING grace state (data kept readable until
        :meth:`release`)."""
        if not mdisk.is_active:
            raise ConfigError(
                f"mDisk {mdisk.mdisk_id} already {mdisk.status.value}")
        if draining:
            mdisk.status = MinidiskStatus.DRAINING
            self.draining.append(mdisk.mdisk_id)
        else:
            mdisk.status = MinidiskStatus.DECOMMISSIONED
        mdisk.decommissioned_seq = seq
        self.active = tuple(m for m in self.active if m is not mdisk)
        self.advertised_lbas -= mdisk.size_lbas

    def release(self, mdisk: Minidisk) -> None:
        """End a DRAINING minidisk's grace period."""
        if mdisk.status is not MinidiskStatus.DRAINING:
            raise ConfigError(
                f"mDisk {mdisk.mdisk_id} is not draining "
                f"(status: {mdisk.status.value})")
        mdisk.status = MinidiskStatus.DECOMMISSIONED
        self.draining.remove(mdisk.mdisk_id)

    def audit(self) -> None:
        """Assert the census equals an O(n) recount of the table."""
        ids = [m.mdisk_id for m in self.minidisks]
        assert ids == list(range(len(ids))), (
            f"minidisk table index != mdisk_id: {ids}")
        active = tuple(m for m in self.minidisks
                       if m.status is MinidiskStatus.ACTIVE)
        assert len(self.active) == len(active) and all(
            kept is scanned for kept, scanned in zip(self.active, active)), (
            f"active set {[m.mdisk_id for m in self.active]} != scan "
            f"{[m.mdisk_id for m in active]}")
        advertised = sum(m.size_lbas for m in active)
        assert self.advertised_lbas == advertised, (
            f"advertised_lbas {self.advertised_lbas} != scan {advertised}")
        draining = sorted(m.mdisk_id for m in self.minidisks
                          if m.status is MinidiskStatus.DRAINING)
        assert sorted(self.draining) == draining, (
            f"draining FIFO {self.draining} != scan {draining}")

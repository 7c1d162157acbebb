"""The Salamander SSD (paper §3).

One device class implements both modes:

* ``SHRINK`` (ShrinkS): worn pages are retired individually; the advertised
  capacity shrinks one mDisk at a time when Eq. 2 fires.
* ``REGEN`` (RegenS): worn pages enter limbo at a higher tiredness level
  (their RBER still fits a lower code rate); once an mDisk-worth of limbo
  capacity accumulates at one level, the pages are revived and a new mDisk
  is announced to the host.

Differences from the paper's firmware sketch, recorded here and in
DESIGN.md:

* Wear transitions are detected lazily — at block erase (when PEC actually
  increments) and at allocation — instead of by a background scrubber. The
  set of transitions is identical; only their discovery time shifts to the
  next erase of the page's block.
* Decommissioning invalidates the victim's LBAs and lets normal GC reclaim
  the space, rather than eagerly relocating the most-worn pages' data. The
  paper's eager relocation is an optimisation of the same state change.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from typing import Callable

import math

import numpy as np

from repro import context
from repro.obs.instruments import (
    export_salamander_state,
    salamander_instruments,
)
from repro.obs.smart import smart_field

from repro.errors import (
    ConfigError,
    DeviceBrickedError,
    MinidiskDecommissionedError,
)
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.salamander.events import (
    DeviceExhausted,
    HostEvent,
    MinidiskDecommissioned,
    MinidiskRegenerated,
)
from repro.salamander.limbo import LimboLedger
from repro.salamander.minidisk import (
    Minidisk,
    MinidiskStatus,
    MinidiskTable,
)
from repro.salamander.regen import plan_revival, plan_revival_mixed
from repro.salamander.shrink import (
    DATA_AWARE_POLICIES,
    VICTIM_POLICIES,
    choose_victim,
)
from repro.ssd.ftl import UNMAPPED, FTLConfig, PageMappedFTL

#: Bound once: the write gate compares every admitted write against it.
_ACTIVE = MinidiskStatus.ACTIVE


class SalamanderMode(Enum):
    SHRINK = "shrink"
    REGEN = "regen"


@dataclass(frozen=True)
class SalamanderConfig:
    """Salamander device configuration.

    Attributes:
        msize_lbas: mDisk size in oPages (256 = the paper's 1 MiB example).
        mode: ``SHRINK`` or ``REGEN`` (strings accepted).
        regen_max_level: highest tiredness level RegenS will reuse; the
            paper recommends stopping below L2 ("RegenS should limit itself
            to L < 2"), i.e. 1.
        headroom_fraction: over-provisioning kept per advertised LBA; Eq. 2
            fires when physical space dips below
            ``advertised * (1 + headroom_fraction)`` plus the GC reserve.
        victim_policy: see :data:`repro.salamander.shrink.VICTIM_POLICIES`.
        regen_slack_fraction: extra limbo capacity (as a fraction of mSize)
            required before minting a new mDisk, kept in service as slack.
            Without it a regenerated mDisk is born with zero margin and the
            very next wear event decommissions it — pure event churn.
        grace_decommissions: §4.3's proposed grace period (future work in
            the paper, implemented here): a decommissioned mDisk enters a
            DRAINING state — writes rejected, data still readable — until
            the host calls :meth:`SalamanderSSD.release_minidisk` (the diFS
            does so once re-replication completes) or until more than this
            many mDisks are draining / physical pressure forces a release.
            0 disables the grace period (the paper's base design).
        regen_mixed_levels: allow one regenerated mDisk to combine pages
            of different tiredness levels (the paper assumes uniform
            tiredness and defers mixing to future work). Mixing revives
            capacity sooner; the mDisk is labelled with its worst level.
        ftl: FTL tunables (its ``max_level``/``overprovision`` are derived
            here and ignored if set).
    """

    msize_lbas: int = 256
    mode: SalamanderMode | str = SalamanderMode.SHRINK
    regen_max_level: int = 1
    headroom_fraction: float = 0.07
    victim_policy: str = "youngest"
    regen_slack_fraction: float = 0.5
    grace_decommissions: int = 0
    regen_mixed_levels: bool = False
    ftl: FTLConfig = field(default_factory=FTLConfig)

    def __post_init__(self) -> None:
        if self.msize_lbas <= 0:
            raise ConfigError(
                f"msize_lbas must be positive, got {self.msize_lbas!r}")
        if not isinstance(self.mode, SalamanderMode):
            object.__setattr__(self, "mode", SalamanderMode(self.mode))
        if self.regen_max_level < 1:
            raise ConfigError(
                f"regen_max_level must be >= 1, got {self.regen_max_level!r}")
        if not 0.0 <= self.headroom_fraction < 1.0:
            raise ConfigError(
                f"headroom_fraction must be in [0, 1), "
                f"got {self.headroom_fraction!r}")
        if self.victim_policy not in VICTIM_POLICIES:
            raise ConfigError(
                f"unknown victim policy {self.victim_policy!r}")
        if self.regen_slack_fraction < 0:
            raise ConfigError(
                f"regen_slack_fraction must be non-negative, "
                f"got {self.regen_slack_fraction!r}")
        if self.grace_decommissions < 0:
            raise ConfigError(
                f"grace_decommissions must be non-negative, "
                f"got {self.grace_decommissions!r}")


class SalamanderSSD(PageMappedFTL):
    """SSD exposing N minidisks with ShrinkS/RegenS wear handling.

    The host-facing API addresses oPages as ``(mdisk_id, lba)``; flat LBAs
    (``mdisk_id * msize + lba``) are an internal detail shared with the FTL
    base class.
    """

    device_kind = "salamander"

    def __init__(self, chip: FlashChip,
                 config: SalamanderConfig | None = None) -> None:
        self.salamander_config = config or SalamanderConfig()
        cfg = self.salamander_config
        geometry = chip.geometry
        slots_per_block = (geometry.fpages_per_block
                           * geometry.opages_per_fpage)
        self._reserve_slots = (cfg.ftl.gc_reserve_blocks + 1) * slots_per_block
        available = geometry.total_opage_slots - self._reserve_slots
        initial_count = int(available
                            // (cfg.msize_lbas * (1.0 + cfg.headroom_fraction)))
        if initial_count < 1:
            raise ConfigError(
                "device too small for even one minidisk at this msize; "
                "shrink msize_lbas or grow the chip")
        max_level = (cfg.regen_max_level
                     if cfg.mode is SalamanderMode.REGEN else 0)
        ftl_config = replace(cfg.ftl, max_level=max_level)
        super().__init__(chip, initial_count * cfg.msize_lbas, ftl_config)

        self.limbo = LimboLedger(self.policy.dead_level)
        self._held_fpages = self.limbo._level_of   # limbo pages stay FREE
        self._event_seq = 0
        self.events: list[HostEvent] = []
        self._listeners: list[Callable[[HostEvent], None]] = []
        # The minidisk table and its census (active set, advertised
        # capacity, DRAINING FIFO): the one owner of minidisk lifecycle.
        self._table = MinidiskTable(cfg.msize_lbas, initial_count)
        self._exhausted = False
        # Lifecycle telemetry binds at construction (None when off): the
        # victim/revival counters and the event trace. The capacity and
        # limbo gauges read the table and the ledger at collect time.
        ctx = context.current()
        self._metrics = ctx.metrics
        self._tracer = ctx.tracer
        self._sal_instr = salamander_instruments()
        export_salamander_state(self.obs_name, self._table, self.limbo,
                                self.geometry.opage_bytes)

    @classmethod
    def create(cls, geometry: FlashGeometry | None = None,
               config: SalamanderConfig | None = None,
               seed: int | np.random.Generator | None = None,
               **chip_kwargs) -> "SalamanderSSD":
        chip = FlashChip(geometry, seed=seed, **chip_kwargs)
        return cls(chip, config)

    # -- power-loss recovery -------------------------------------------------

    def nvram_snapshot(self) -> dict:
        """Device metadata persisted in NVRAM alongside the write buffer.

        The minidisk table, limbo ledger and event state are tiny (a few
        bytes per minidisk) and live in the same non-volatile memory the
        paper's write buffer uses; this snapshot is what survives power
        loss.
        """
        return {
            "minidisks": self._table.rows(),
            "limbo": dict(self.limbo._level_of),
            "draining": list(self._table.draining),
            "event_seq": self._event_seq,
            "exhausted": self._exhausted,
            "buffer": [(lba, self.buffer.get(lba))
                       for lba in self.buffer.keys()],
        }

    @classmethod
    def remount(cls, chip: FlashChip, config: SalamanderConfig,
                snapshot: dict) -> "SalamanderSSD":
        """Mount over existing flash after power loss.

        Restores the NVRAM metadata (minidisk table, limbo, buffer) and
        replays the flash OOB log to rebuild the mapping; stale entries
        addressed to decommissioned minidisks are dropped.
        """
        device = cls(chip, config)
        # The census comes back with the table, before anything below
        # (the flash replay's wear handling) asks for capacity. Table
        # and limbo ledger are refilled in place, so the objects the
        # constructor handed to the metric export stay the live ones.
        device._table.restore(snapshot["minidisks"], snapshot["draining"])
        flat = sum(m.size_lbas for m in device.minidisks)
        if flat > device.n_lbas:
            device._grow_flat_space(flat - device.n_lbas)
        device.n_lbas = flat
        for fpage, level in snapshot["limbo"].items():
            device.limbo.add(int(fpage), int(level))
        device._event_seq = int(snapshot["event_seq"])
        device._exhausted = bool(snapshot["exhausted"])
        device._attributed("remount", device._mount, snapshot["buffer"])
        return device

    def _rebuild_from_flash(self) -> None:
        """The mapping replay, less resurrected mappings inside
        decommissioned minidisks."""
        super()._rebuild_from_flash()
        for mdisk in self.minidisks:
            if mdisk.status is MinidiskStatus.DECOMMISSIONED:
                self._invalidate(mdisk)

    # -- host-facing geometry ----------------------------------------------------

    @property
    def mode(self) -> SalamanderMode:
        return self.salamander_config.mode

    @property
    def msize_lbas(self) -> int:
        return self.salamander_config.msize_lbas

    @property
    def minidisks(self) -> list[Minidisk]:
        """Every minidisk the device ever had, indexed by ``mdisk_id``
        (read-only: the table's transition methods do the changing)."""
        return self._table.minidisks

    def active_minidisks(self) -> tuple[Minidisk, ...]:
        """The ACTIVE minidisks, in ``mdisk_id`` order."""
        return self._table.active

    def minidisk(self, mdisk_id: int) -> Minidisk:
        minidisks = self._table.minidisks
        if not 0 <= mdisk_id < len(minidisks):
            raise ConfigError(
                f"mDisk {mdisk_id} does not exist "
                f"(device has {len(minidisks)})")
        return minidisks[mdisk_id]

    @property
    def advertised_lbas(self) -> int:
        """oPages across all active minidisks (the host-visible capacity)."""
        return self._table.advertised_lbas

    @property
    def advertised_bytes(self) -> int:
        return self.advertised_lbas * self.geometry.opage_bytes

    @property
    def capacity_lbas(self) -> int:
        """Protocol alias: the host-visible capacity is the active-
        minidisk sum (shrinks on decommission, grows on regeneration).
        """
        return self._table.advertised_lbas

    @property
    def is_alive(self) -> bool:
        return not self._exhausted

    @property
    def event_seq(self) -> int:
        """Change counter: incremented *before* every decommission,
        regeneration and exhaustion, so a host that remembers the value
        knows the minidisk census is unchanged while it has not moved —
        even if the matching host event was never delivered.
        """
        return self._event_seq

    def add_listener(self, listener: Callable[[HostEvent], None]) -> None:
        """Subscribe to host events (decommission/regeneration/exhaustion)."""
        self._listeners.append(listener)

    # -- host I/O ------------------------------------------------------------------

    def write(self, mdisk_id: int, lba: int, data: bytes,  # type: ignore[override]
              stream: int = 0) -> None:
        """Write one oPage to ``(mdisk_id, lba)``.

        The address is range-checked here and admitted once, by the
        kernel's :meth:`_admit_write`; :meth:`minidisk` and
        :meth:`Minidisk.flat_lba` run only to raise their errors.
        """
        table = self._table
        size = table.size_lbas
        if not (0 <= mdisk_id < len(table.minidisks) and 0 <= lba < size):
            self.minidisk(mdisk_id).flat_lba(lba)
        super().write(mdisk_id * size + lba, data, stream)

    def read(self, mdisk_id: int, lba: int) -> bytes:  # type: ignore[override]
        """Read one oPage from ``(mdisk_id, lba)``.

        Reads are also served from DRAINING minidisks — the §4.3 grace
        period exists precisely so the diFS can still pull data out.
        """
        return super().read(self._readable_mdisk(mdisk_id).flat_lba(lba))

    def read_range(self, mdisk_id: int, lba: int,  # type: ignore[override]
                   count: int) -> list[bytes]:
        """Scatter-gather read of ``count`` LBAs within one minidisk."""
        mdisk = self._readable_mdisk(mdisk_id)
        return super().read_range(mdisk.flat_range(lba, count), count)

    def write_range(self, mdisk_id: int, lba: int,  # type: ignore[override]
                    payloads: list[bytes], stream: int = 0) -> None:
        """Write consecutive LBAs within one minidisk, in order; a
        decommission that lands mid-range rejects the members after it
        (the FTL's write kernel re-asks :meth:`_admit_write`)."""
        table = self._table
        size = table.size_lbas
        end = lba + len(payloads)
        if not (0 <= mdisk_id < len(table.minidisks)
                and 0 <= lba < end <= size):
            self.minidisk(mdisk_id).flat_range(lba, len(payloads))
        super().write_range(mdisk_id * size + lba, payloads, stream)

    def trim(self, mdisk_id: int, lba: int) -> None:  # type: ignore[override]
        mdisk = self._active_mdisk(mdisk_id)
        super().trim(mdisk.flat_lba(lba))

    def trim_range(self, mdisk_id: int, lba: int,  # type: ignore[override]
                   count: int) -> None:
        """Discard ``count`` consecutive LBAs within one minidisk."""
        mdisk = self._active_mdisk(mdisk_id)
        super().trim_range(mdisk.flat_range(lba, count), count)

    def _admit_write(self, lba: int) -> int:
        """Host writes land only in an ACTIVE minidisk of a live device;
        the admitted run ends with the minidisk. Read off the table;
        :meth:`_active_mdisk` runs only to raise its error."""
        table = self._table
        mdisk_id = lba // table.size_lbas
        if (self._exhausted or not 0 <= mdisk_id < len(table.minidisks)
                or table.minidisks[mdisk_id].status is not _ACTIVE):
            self._active_mdisk(mdisk_id)
        return (mdisk_id + 1) * table.size_lbas

    def _readable_mdisk(self, mdisk_id: int) -> Minidisk:
        if self._exhausted:
            raise DeviceBrickedError("all minidisks decommissioned")
        mdisk = self.minidisk(mdisk_id)
        if not mdisk.is_readable:
            raise MinidiskDecommissionedError(
                f"mDisk {mdisk_id} was decommissioned")
        return mdisk

    def _active_mdisk(self, mdisk_id: int) -> Minidisk:
        if self._exhausted:
            raise DeviceBrickedError("all minidisks decommissioned")
        mdisk = self.minidisk(mdisk_id)
        if not mdisk.is_active:
            raise MinidiskDecommissionedError(
                f"mDisk {mdisk_id} was decommissioned")
        return mdisk

    # -- capacity accounting (Eq. 1 / Eq. 2) -----------------------------------------

    def in_service_opage_slots(self) -> int:
        """Physical slots backing the advertised capacity (excludes limbo)."""
        return self.usable_opage_slots() - self.limbo.capacity_opages()

    def needed_opage_slots(self) -> int:
        """Right-hand side of Eq. 2: what the advertised capacity requires.

        Draining minidisks no longer count toward advertised capacity, but
        their not-yet-released data still occupies physical slots, so it is
        added here — otherwise the grace period would mask real pressure.
        """
        cfg = self.salamander_config
        table = self._table
        draining_live = 0
        if table.draining:
            counts = self._live_counts()
            draining_live = sum(counts.get(m, 0) for m in table.draining)
        return (math.ceil(table.advertised_lbas
                          * (1.0 + cfg.headroom_fraction))
                + self._reserve_slots + draining_live)

    def capacity_deficit(self) -> int:
        """Positive when Eq. 2 says the device must shed capacity."""
        return self.needed_opage_slots() - self.in_service_opage_slots()

    # -- wear policy --------------------------------------------------------------------

    def _handle_worn_page(self, fpage: int, required_level: int) -> bool:
        cfg = self.salamander_config
        dead = self.policy.dead_level
        regen = cfg.mode is SalamanderMode.REGEN
        if fpage in self.limbo:
            # A parked page aged further (its block was erased around it).
            if required_level >= dead or required_level > cfg.regen_max_level:
                self.limbo.remove(fpage)
                self.chip.retire(fpage)
                self.stats.retired_fpages += 1
            else:
                self.chip.set_level(fpage, required_level)
                self.limbo.bump(fpage, required_level)
            return False
        if not regen or required_level > cfg.regen_max_level:
            # ShrinkS, or beyond what RegenS will reuse: page leaves service.
            self.chip.retire(fpage)
            self.stats.retired_fpages += 1
            return False
        # RegenS: park at the lower code rate until an mDisk-worth exists.
        self.chip.set_level(fpage, required_level)
        self.limbo.add(fpage, required_level)
        return False

    def _after_wear_event(self, block: int, worn_fpages: list[int]) -> None:
        self._rebalance_capacity()

    def _rebalance_capacity(self) -> None:
        """Apply Eq. 2 (decommission) then drain limbo (regenerate).

        Under physical pressure, draining minidisks are force-released
        (their grace ends early) before any further active mDisk is
        sacrificed — freed garbage is cheaper than lost capacity.
        """
        table = self._table
        policy = self.salamander_config.victim_policy
        while self.capacity_deficit() > 0:
            if table.draining:
                self.release_minidisk(table.draining[0])
                continue
            active = table.active
            if not active:
                break
            victim = choose_victim(
                policy, active,
                self._live_counts() if policy in DATA_AWARE_POLICIES else {})
            if self._metrics is not None:
                self._metrics.counter(
                    "repro_shrink_victim_picks_total",
                    help="ShrinkS decommission victim selections",
                    unit="minidisks",
                    labelnames=("policy",)).labels(policy=policy).inc()
            # Any chip work the shrink does (today: none — the minidisk
            # is unmapped, not rewritten) is ShrinkS burn.
            self._attributed("shrink", self._decommission, victim, "wear",
                             counter="shrink_events")
        if not table.active:
            self._exhaust()
            raise DeviceBrickedError(
                "device exhausted: all minidisks decommissioned")
        if self.salamander_config.mode is SalamanderMode.REGEN:
            # Counted after the pass, and only if it minted: a request's
            # ``regen_events`` is minidisks regenerated, not passes run.
            minted = self.stats.regenerated_minidisks
            self._attributed("regen", self._regenerate)
            minted = self.stats.regenerated_minidisks - minted
            rt = self._reqtrace
            if minted and rt is not None and rt.active is not None:
                rt.active.bump("regen_events", minted)

    def _decommission(self, mdisk: Minidisk, reason: str) -> None:
        grace = self.salamander_config.grace_decommissions
        table = self._table
        self._event_seq += 1
        if grace > 0:
            # §4.3 grace period: keep the data readable while the diFS
            # re-replicates; only the logical capacity leaves service now.
            table.decommission(mdisk, self._event_seq, draining=True)
            if self._faults is not None:
                self._faults.crash_if("salamander.decommission",
                                      mdisk=mdisk.mdisk_id, reason=reason)
        else:
            # Durability ordering (docs/FAULTS.md, ack-before-persist):
            # record the decommission in the NVRAM minidisk table *before*
            # dropping the mDisk's mappings and buffered writes. A crash
            # between the two must find the mDisk already DECOMMISSIONED
            # (remount re-runs the invalidation), never an ACTIVE mDisk
            # whose acked data was already discarded.
            table.decommission(mdisk, self._event_seq)
            if self._faults is not None:
                self._faults.crash_if("salamander.decommission",
                                      mdisk=mdisk.mdisk_id, reason=reason)
            self._invalidate(mdisk)
        self.stats.decommissioned_minidisks += 1
        if self._sal_instr is not None:
            self._sal_instr.decommissions.labels(
                device=self.obs_name, reason=reason).inc()
        self._emit(MinidiskDecommissioned(
            seq=self._event_seq, mdisk_id=mdisk.mdisk_id, reason=reason,
            remaining_active=len(table.active)))
        while len(table.draining) > grace:
            self.release_minidisk(table.draining[0])

    def release_minidisk(self, mdisk_id: int) -> None:
        """End a DRAINING minidisk's grace period and drop its data.

        Called by the host once re-replication completes, or internally
        when grace capacity runs out. Idempotent for already-released
        disks is a caller error (they no longer drain).
        """
        mdisk = self.minidisk(mdisk_id)
        self._table.release(mdisk)      # refuses unless DRAINING
        self._invalidate(mdisk)

    def _invalidate(self, mdisk: Minidisk) -> None:
        """Drop every mapping and buffered write inside ``mdisk``."""
        base = mdisk.flat_base
        end = base + mdisk.size_lbas
        for flat in self.buffer.keys():
            if base <= flat < end:
                self.buffer.discard(flat)
                self._note_unbuffered(flat)
        for flat in range(base, end):
            self._unmap(flat)

    def _regenerate(self) -> None:
        """Mint new mDisks while a single limbo level can back one (§3.4).

        Revival demands ``regen_slack_fraction`` of extra capacity beyond
        the mDisk's own needs; the surplus stays in service as margin so
        the newborn mDisk survives the next few wear events.
        """
        cfg = self.salamander_config
        needed = math.ceil(cfg.msize_lbas
                           * (1.0 + cfg.headroom_fraction
                              + cfg.regen_slack_fraction))
        planner = (plan_revival_mixed if cfg.regen_mixed_levels
                   else plan_revival)
        while True:
            plan = planner(self.limbo, needed)
            if plan is None:
                return
            if self._metrics is not None:
                self._metrics.counter(
                    "repro_regen_revival_plans_total",
                    help="RegenS revival plans produced",
                    unit="minidisks",
                    labelnames=("level", "mixed")).labels(
                        level=str(plan.level),
                        mixed="true" if plan.mixed else "false").inc()
            if self._faults is not None:
                # Crash *before* the mint touches NVRAM: the limbo
                # ledger / minidisk table mutations below model one
                # atomic NVRAM transaction, so the injection point sits
                # outside it.
                self._faults.crash_if("salamander.regenerate",
                                      level=plan.level)
            for fpage in plan.fpages:
                self.limbo.remove(fpage)
            self._event_seq += 1
            mdisk = self._table.mint(plan.level, self._event_seq)
            self._grow_flat_space(cfg.msize_lbas)
            self.stats.regenerated_minidisks += 1
            if self._sal_instr is not None:
                self._sal_instr.regenerations.labels(
                    device=self.obs_name, level=str(plan.level)).inc()
            self._emit(MinidiskRegenerated(
                seq=self._event_seq, mdisk_id=mdisk.mdisk_id,
                level=plan.level, size_lbas=mdisk.size_lbas))

    def _grow_flat_space(self, extra_lbas: int) -> None:
        self._l2p.extend([UNMAPPED] * extra_lbas)
        self.n_lbas += extra_lbas

    def _exhaust(self) -> None:
        if not self._exhausted:
            self._exhausted = True
            self._event_seq += 1
            self._emit(DeviceExhausted(seq=self._event_seq))

    def _emit(self, event: HostEvent) -> None:
        if self._tracer is not None:
            self._tracer.event(
                type(event).__name__, device=self.obs_name,
                **asdict(event))
        self.events.append(event)
        for listener in self._listeners:
            listener(event)

    def _live_counts(self) -> dict[int, int]:
        """Live LBAs per active mDisk (mapped plus buffered-unmapped)."""
        counts: dict[int, int] = {}
        msize = self.msize_lbas
        mapped = np.flatnonzero(np.array(self._l2p) >= 0)
        for mdisk_id, live in zip(*np.unique(mapped // msize,
                                             return_counts=True)):
            counts[int(mdisk_id)] = int(live)
        for key in self.buffer.keys():
            if self._l2p[key] < 0:
                counts[key // msize] = counts.get(key // msize, 0) + 1
        return counts

    def _audit_fastpath(self) -> None:
        """The FTL audit, plus: the minidisk census equals a recount of
        the table, and the flat LBA space is exactly the table's."""
        super()._audit_fastpath()
        # The allocator and the drain test the ledger's dict in place.
        assert self._held_fpages is self.limbo._level_of, (
            "limbo ledger rebound its page dict; held pages unguarded")
        self._table.audit()
        flat = sum(m.size_lbas for m in self._table.minidisks)
        assert self.n_lbas == flat == len(self._l2p), (
            f"flat space {self.n_lbas} (map {len(self._l2p)}) != "
            f"minidisk table {flat}")

    # -- reporting ------------------------------------------------------------------------

    def minidisk_report(self) -> list[dict]:
        """Per-minidisk status rows (id, level, status, live data)."""
        counts = self._live_counts()
        return [{
            "mdisk_id": m.mdisk_id,
            "level": m.level,
            "status": m.status.value,
            "size_lbas": m.size_lbas,
            "live_lbas": counts.get(m.mdisk_id, 0),
            "created_seq": m.created_seq,
            "decommissioned_seq": m.decommissioned_seq,
        } for m in self.minidisks]

    def smart_sample(self) -> dict:
        """SMART-style health snapshot keyed by the shared catalog names.

        Scalar fields map ``name -> value``; ``repro_smart_level_fpages``
        maps level label to in-service fPage count (the paper's L0..L4
        histogram). The vocabulary comes from :mod:`repro.obs.smart`, so
        functional devices, the fleet model and baseline telemetry
        populations emit directly comparable series — feed the result to
        a sampler via :meth:`record_smart`.
        """
        chip = self.chip
        pec = chip.pec_array()
        levels = chip.level_array()
        in_service = ~chip.retired_mask()
        level_counts = {
            str(k): float(np.count_nonzero(levels[in_service] == k))
            for k in self.policy.usable_levels}
        if in_service.any():
            mean_pec = float(pec[in_service].mean())
            median_pec = float(np.median(pec[in_service]))
        else:
            mean_pec = median_pec = 0.0
        return {
            "repro_smart_host_writes_bytes": float(
                self.stats.host_writes * self.geometry.opage_bytes),
            "repro_smart_mean_pec": mean_pec,
            "repro_smart_max_pec": float(pec.max()) if pec.size else 0.0,
            # Median-page estimate: the wear curve at the median PEC
            # (per-page variation and disturb effects average out).
            "repro_smart_rber": float(chip.rber_model.rber(median_pec)),
            "repro_smart_level_fpages": level_counts,
            "repro_smart_retired_fpages": float(chip.retired_count()),
            "repro_smart_retired_minidisks": float(
                self.stats.decommissioned_minidisks),
            "repro_smart_regenerated_minidisks": float(
                self.stats.regenerated_minidisks),
            "repro_smart_advertised_bytes": float(self.advertised_bytes),
            "repro_smart_limbo_fpages": float(len(self.limbo)),
            "repro_smart_waf": float(
                self.stats.write_amplification
                if self.stats.host_writes else 0.0),
        }

    def record_smart(self, t: float, sampler,
                     labels: dict[str, str] | None = None) -> None:
        """Record :meth:`smart_sample` into a timeseries sampler.

        Series are labelled ``device=<obs_name>`` plus any extra
        ``labels``.
        """
        base = {"device": self.obs_name, **(labels or {})}
        for name, value in self.smart_sample().items():
            meta = smart_field(name)
            if isinstance(value, dict):
                for level, count in value.items():
                    sampler.record(name, t, count,
                                   labels={**base, "level": level},
                                   unit=meta.unit, kind=meta.kind)
            else:
                sampler.record(name, t, value, labels=base,
                               unit=meta.unit, kind=meta.kind)

    def report(self) -> dict[str, float]:
        """Health/state summary used by examples and the fleet harness."""
        summary = dict(self.chip.wear_summary())
        summary.update(self.stats.snapshot())
        summary["mode"] = self.mode.value
        summary["active_minidisks"] = len(self._table.active)
        summary["total_minidisks"] = len(self._table.minidisks)
        summary["advertised_bytes"] = self.advertised_bytes
        summary["limbo_fpages"] = len(self.limbo)
        summary["limbo_capacity_opages"] = self.limbo.capacity_opages()
        summary["in_service_opage_slots"] = self.in_service_opage_slots()
        summary["alive"] = float(self.is_alive)
        return summary

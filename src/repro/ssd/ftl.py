"""Page-mapped flash translation layer (FTL).

This is the mechanism layer shared by :class:`repro.ssd.device.BaselineSSD`
and :class:`repro.salamander.device.SalamanderSSD`: logical-to-physical
mapping at oPage granularity, NVRAM write buffering, block allocation with
wear leveling, garbage collection, and wear-transition detection.

Policy differences between device types are expressed through two template
hooks:

* :meth:`PageMappedFTL._handle_worn_page` — called when a *free* page's RBER
  has outgrown the ECC of its current tiredness level (detected right after
  the erase that bumped its PEC). The default retires the single page —
  Salamander's behaviour. The baseline device overrides this to retire the
  whole block, reproducing commodity firmware.
* :meth:`PageMappedFTL._after_wear_event` — called once per erase that
  produced worn pages, so devices can run capacity checks (Salamander's
  Eq. 2) or end-of-life rules (the baseline's 2.5 % brick threshold).

Physical addressing: an oPage *slot* is ``fpage * P + slot`` with ``P`` the
geometry's oPages-per-fPage; pages at tiredness level ``L`` only use slots
``0 .. P-L-1``. The logical map ``l2p`` holds a slot index, ``UNMAPPED``
(never written / trimmed) or ``LOST`` (data destroyed by an uncorrectable
error — the distributed layer re-replicates around this).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro import context
from repro.errors import (
    ConfigError,
    EraseFaultError,
    InvalidLBAError,
    OutOfSpaceError,
    ProgramFaultError,
    UncorrectableError,
)
from repro.flash.chip import FlashChip
from repro.obs.instruments import export_ftl_stats, next_device_name
from repro.ssd.freelist import BlockIndex
from repro.ssd.gc import GreedyGC
from repro.ssd.remount import RemountMixin
from repro.ssd.scrub import ScrubMixin
from repro.ssd.stats import SSDStats
from repro.ssd.wear import select_min_wear_block
from repro.ssd.write_buffer import WriteBuffer

UNMAPPED = -1
LOST = -2


@dataclass(frozen=True)
class FTLConfig:
    """Tunables of the FTL mechanism.

    Attributes:
        overprovision: fraction of raw oPage slots hidden from the host.
        gc_reserve_blocks: free blocks host writes may not consume; GC dips
            into them while compacting.
        buffer_opages: NVRAM write-buffer capacity.
        max_level: highest tiredness level at which pages may still store
            data. 0 reproduces a fixed-code-rate device; RegenS raises it.
        stream_separation: keep separate open blocks for host writes and
            GC/scrub relocations. Relocated data is colder than fresh host
            data; mixing them in one block raises write amplification
            under skewed traffic (see the ablation bench).
        host_streams: open blocks available to host stream hints (the
            multi-stream SSD directive): ``write(lba, data, stream=s)``
            groups data of like lifetime into like blocks, so hot and cold
            data stop sharing erase units. 1 disables hints.
        scrub_interval_writes: host operations — buffer drains, ``read``
            and ``read_range`` calls (read disturb also drives pages past
            their ECC) — between automatic scrub sweeps; 0 disables. A
            sweep examines ``scrub_batch_fpages`` pages from a rolling
            cursor and relocates data off pages whose RBER has outgrown
            their ECC — catching wear *before* a read fails rather than
            lazily at the next erase.
        scrub_batch_fpages: pages examined per automatic sweep.
    """

    overprovision: float = 0.07
    gc_reserve_blocks: int = 2
    buffer_opages: int = 64
    max_level: int = 0
    stream_separation: bool = True
    host_streams: int = 1
    scrub_interval_writes: int = 0
    scrub_batch_fpages: int = 64

    def __post_init__(self) -> None:
        if not 0.0 <= self.overprovision < 1.0:
            raise ConfigError(
                f"overprovision must be in [0, 1), got {self.overprovision!r}")
        if self.gc_reserve_blocks < 1:
            raise ConfigError(
                f"gc_reserve_blocks must be >= 1, got {self.gc_reserve_blocks!r}")
        if self.buffer_opages <= 0:
            raise ConfigError(
                f"buffer_opages must be positive, got {self.buffer_opages!r}")
        if self.max_level < 0:
            raise ConfigError(
                f"max_level must be non-negative, got {self.max_level!r}")
        if self.host_streams < 1:
            raise ConfigError(
                f"host_streams must be >= 1, got {self.host_streams!r}")
        if self.scrub_interval_writes < 0:
            raise ConfigError(
                f"scrub_interval_writes must be non-negative, "
                f"got {self.scrub_interval_writes!r}")
        if self.scrub_batch_fpages <= 0:
            raise ConfigError(
                f"scrub_batch_fpages must be positive, "
                f"got {self.scrub_batch_fpages!r}")


class PageMappedFTL(ScrubMixin, RemountMixin):
    """Logical block device over a :class:`FlashChip`.

    The wear scrubber lives in :class:`repro.ssd.scrub.ScrubMixin` and
    the power-loss remount path in
    :class:`repro.ssd.remount.RemountMixin`; this module keeps the
    mapping, buffering, allocation and GC core (and re-exports the
    whole assembled class, so existing imports keep working).

    Conforms to :class:`repro.io.protocols.BlockDevice`: the shared
    control surface (``capacity_lbas``/``is_alive``/``health``) and the
    lazily created :class:`repro.io.queue.DeviceQueue` (``io_queue``,
    ``attach_queue``) live here, so every device flavour inherits them.

    Args:
        chip: the flash chip to manage.
        n_lbas: logical oPage count exposed to the host.
        config: FTL tunables; ``None`` means defaults.
    """

    #: Metric label for the device flavour; subclasses override.
    device_kind = "ftl"

    def __init__(self, chip: FlashChip, n_lbas: int,
                 config: FTLConfig | None = None) -> None:
        self.chip = chip
        self.geometry = chip.geometry
        self.policy = chip.policy
        self.config = config or FTLConfig()
        if self.config.max_level >= self.policy.dead_level:
            raise ConfigError(
                f"max_level {self.config.max_level} must be below the dead "
                f"level {self.policy.dead_level}")
        if n_lbas <= 0:
            raise ConfigError(f"n_lbas must be positive, got {n_lbas!r}")
        slots_per_block = (self.geometry.fpages_per_block
                           * self.geometry.opages_per_fpage)
        headroom = (self.config.gc_reserve_blocks + 1) * slots_per_block
        if n_lbas > self.geometry.total_opage_slots - headroom:
            raise ConfigError(
                f"n_lbas {n_lbas} leaves less than {headroom} oPage slots of "
                f"headroom; shrink the logical size or grow the chip")

        self.n_lbas = n_lbas
        self._capacity_lbas = n_lbas
        self._io_queue = None
        # The run context binds at construction: with nothing scoped each
        # hook is one attribute test (None). The request tracer's active
        # context (a sampled request mid-dispatch) is read through its
        # binding; housekeeping paths (GC, scrubbing, wear leveling,
        # shrink/regen) scope-attribute the chip programs/erases they
        # cause to the wear ledger; everything else stays "host".
        ctx = context.current()
        self._faults = ctx.faults
        self._reqtrace = ctx.reqtrace
        self._endurance = ctx.endurance
        #: Stable observability label for this device's metric series.
        self.obs_name = next_device_name()
        self.stats = SSDStats()
        export_ftl_stats(self.obs_name, self.stats)
        self.buffer = WriteBuffer(self.config.buffer_opages)
        self._gc = GreedyGC()

        p = self.geometry.opages_per_fpage
        self._slots_per_fpage_max = p
        self._slots_per_block = self.geometry.fpages_per_block * p
        # oPage capacity per tiredness level, resolved once (P - L).
        self._data_opages = tuple(
            self.policy.data_opages(level) for level in self.policy.levels)
        # L2P/P2L and the valid-oPage count per block are lists of Python
        # ints: every touch is a scalar one (a list cell costs a fraction
        # of a numpy element), and the vector readers — GC victim
        # scoring, the audit, Salamander's live counts — convert once
        # per call (docs/PERFORMANCE.md).
        self._l2p = [UNMAPPED] * n_lbas
        self._p2l = [UNMAPPED] * self.geometry.total_opage_slots
        self._valid_counts = [0] * self.geometry.blocks
        self._erase_counts = np.zeros(self.geometry.blocks, dtype=np.int64)

        self._write_seq = 0  # monotone program counter, stored in OOB
        # Moves before any wear-policy hook runs — the only code that can
        # change what a flavour's ``_admit_write`` answers — so the write
        # kernel re-asks only after a drain in which it moved.
        self._wear_epoch = 0
        # Incrementally maintained allocation/GC indexes (the hot-path
        # invariants live in docs/PERFORMANCE.md). ``_block_usable`` is a
        # template hook, so the free index filters through it lazily.
        self._free_blocks = BlockIndex(range(self.geometry.blocks),
                                       usable_fn=self._block_usable)
        self._closed_blocks = BlockIndex()
        self._dead_blocks: set[int] = set()
        # One open (block, cursor) per write stream: host stream hints get
        # their own blocks, and relocations get one when stream_separation
        # is on. Keys are resolved once; without separation relocations
        # share host0's.
        self._host_keys = tuple(f"host{i}"
                                for i in range(self.config.host_streams))
        self._gc_key = "gc" if self.config.stream_separation else "host0"
        self._open: dict[str, tuple[int, int] | None] = dict.fromkeys(
            (*self._host_keys, "gc"))
        self._buffer_stream: dict[int, int] = {}
        # Incremental counters replacing full rescans: buffered oPages per
        # stream (invariant: ``_buffer_stream`` holds exactly the buffered
        # keys and these sum over it) and mapped LBAs (invariant: the
        # ``_l2p`` cells >= 0).
        self._stream_counts = [0] * self.config.host_streams
        self._mapped_lbas = 0
        self._scrub_cursor = 0
        self._writes_since_scrub = 0
        # Per-open-block wear-required levels, computed once per tenure
        # (vectorised) instead of per allocated fPage. Valid while read
        # disturb is unmodelled; keyed by stream, guarded by block.
        self._open_required: dict[str, tuple[int, list[int]] | None] = {}

    # -- host interface ------------------------------------------------------

    @classmethod
    def for_chip(cls, chip: FlashChip,
                 config: FTLConfig | None = None) -> "PageMappedFTL":
        """Build an FTL exposing ``(1 - overprovision)`` of the chip's slots."""
        config = config or FTLConfig()
        n_lbas = int(chip.geometry.total_opage_slots
                     * (1.0 - config.overprovision))
        return cls(chip, n_lbas, config)

    @property
    def capacity_lbas(self) -> int:
        """Currently advertised logical size in oPages.

        Plain FTLs and the baseline device advertise a fixed
        ``n_lbas``; CVSS assigns this downward as blocks retire;
        Salamander overrides it with the active-minidisk sum.
        """
        return self._capacity_lbas

    @capacity_lbas.setter
    def capacity_lbas(self, value: int) -> None:
        self._capacity_lbas = value

    @property
    def capacity_bytes(self) -> int:
        """Advertised device size in bytes."""
        return self.capacity_lbas * self.geometry.opage_bytes

    @property
    def is_alive(self) -> bool:
        """Whether the device still serves IO (subclasses refine)."""
        return True

    def health(self) -> dict:
        """Uniform :class:`~repro.io.protocols.BlockDevice` health
        snapshot; device flavours layer their richer reports
        (``smart()``, ``smart_sample()``) on top of this shared core.
        """
        return {
            "device_kind": self.device_kind,
            "alive": self.is_alive,
            "capacity_lbas": self.capacity_lbas,
            "capacity_bytes": self.capacity_bytes,
            "live_lbas": self.live_lbas(),
            "free_blocks": self.free_block_count(),
            "retired_fpages": self.stats.retired_fpages,
            "host_writes": self.stats.host_writes,
            "host_reads": self.stats.host_reads,
        }

    # -- queued IO path ------------------------------------------------------

    @property
    def io_queue(self):
        """This device's submission queue, created on first use.

        Lazy so that fault/perf harnesses constructing thousands of
        devices never pay for queues they do not poll.
        """
        if self._io_queue is None:
            from repro.io.queue import DeviceQueue
            self._io_queue = DeviceQueue(self)
        return self._io_queue

    def attach_queue(self, depth: int = 8):
        """(Re)build the submission queue with an explicit depth."""
        from repro.io.queue import DeviceQueue
        self._io_queue = DeviceQueue(self, depth=depth)
        return self._io_queue

    def write(self, lba: int, data: bytes, stream: int = 0) -> None:
        """Buffer a 4 KiB (or shorter) write to ``lba``, on the lane of
        lifetime hint ``stream`` (see ``FTLConfig.host_streams``)."""
        self._write_members(lba, (data,), stream)

    def write_range(self, lba: int, payloads: list[bytes],
                    stream: int = 0) -> None:
        """Write consecutive LBAs in one call, all on ``stream``.

        Per-LBA :meth:`write` semantics (a refused member raises after
        those before it landed); the range drains through the buffer
        in arrival order, so it lands as densely packed fPages.
        """
        if not payloads:
            raise ConfigError("payloads must be non-empty")
        self._check_lba(lba)
        self._check_lba(lba + len(payloads) - 1)
        self._write_members(lba, payloads, stream)

    def _write_members(self, lba: int, payloads, stream: int) -> None:
        """The write kernel — the only per-LBA write loop; :meth:`write`
        is its length-1 case (docs/PERFORMANCE.md, "Kernels and their
        twins").

        :meth:`_admit_write` is asked before the first member and again
        after every drain that handled wear (``_wear_epoch`` moved), the
        only place admission state changes, so a brick or decommission
        landing mid-range refuses exactly the members after it. Per
        member, in single-write order: size check, ``ftl.write`` fault
        hit *before* the NVRAM insert (a crash there was never acked),
        ``host_writes``, one ``write_latency`` sample (``0.0`` unless it
        waited for a drain).
        """
        limit = self._admit_write(lba)
        self._check_lba(lba)
        if not 0 <= stream < self.config.host_streams:
            raise ConfigError(
                f"stream must be in [0, {self.config.host_streams}), "
                f"got {stream!r}")
        opage_bytes = self.geometry.opage_bytes
        # ``buffer.put`` / ``is_full`` and the stream counts, in place.
        entries = self.buffer._entries
        capacity = self.buffer.capacity_opages
        streams = self._buffer_stream
        counts = self._stream_counts
        injector = self._faults
        stats = self.stats
        chip_stats = self.chip.stats
        add_latency = stats.write_latency.add
        for payload in payloads:
            if lba >= limit:
                limit = self._admit_write(lba)
            if len(payload) > opage_bytes:
                raise ConfigError(
                    f"write of {len(payload)} bytes exceeds the "
                    f"{opage_bytes}-byte oPage size; split at the "
                    f"device layer")
            if injector is not None:
                injector.crash_if("ftl.write", lba=lba)
            # A write's visible cost is the device work it waited
            # for: usually none (NVRAM hit), sometimes a drain,
            # occasionally a whole GC pass — the write tail.
            waited = 0.0
            if lba not in entries and len(entries) >= capacity:
                epoch = self._wear_epoch
                busy_before = chip_stats.busy_us
                try:
                    self._drain_one_fpage()
                except OutOfSpaceError:
                    self._exhaust()
                    raise
                waited = chip_stats.busy_us - busy_before
                if self._wear_epoch != epoch:
                    limit = lba + 1  # admission may have moved: ask again
            entries[lba] = bytes(payload)
            prev = streams.get(lba)
            if prev != stream:
                if prev is not None:
                    counts[prev] -= 1
                streams[lba] = stream
                counts[stream] += 1
            stats.host_writes += 1
            add_latency(waited)
            lba += 1

    def read(self, lba: int) -> bytes:
        """Read the 4 KiB oPage at ``lba``.

        Unwritten LBAs read as zeros (block-device semantics), and a
        short payload is zero-padded here: the chip stores it as written,
        so ``read`` and :meth:`read_range` are the pad sites. LBAs whose
        backing page suffered an uncorrectable error raise
        :class:`UncorrectableError` until rewritten.
        """
        self._check_lba(lba)
        self.stats.host_reads += 1
        self._maybe_autoscrub()
        buffered = self.buffer.get(lba)
        if buffered is not None:
            return buffered.ljust(self.geometry.opage_bytes, b"\0")
        slot = self._l2p[lba]
        if slot == UNMAPPED:
            return bytes(self.geometry.opage_bytes)
        if slot == LOST:
            raise UncorrectableError(
                f"LBA {lba}: data lost to an earlier media error",
                bit_errors=-1, correctable=-1)
        fpage, offset = divmod(slot, self._slots_per_fpage_max)
        try:
            data, latency = self.chip.read(fpage, offset)
        except UncorrectableError:
            self._lose_lba(lba, slot)
            raise
        self.stats.read_latency.add(latency)
        return data.ljust(self.geometry.opage_bytes, b"\0")

    def read_range(self, lba: int, count: int) -> list[bytes]:
        """Scatter-gather read of ``count`` consecutive LBAs — the read
        kernel (docs/PERFORMANCE.md, "Kernels and their twins").

        Groups the physical locations by fPage and senses each touched
        fPage once (a whole-fPage :meth:`FlashChip.read`), which is what makes
        large accesses pay the paper's ``P / (P - L)`` factor: the same
        logical bytes spread over more fPages once pages run at higher
        tiredness levels. One host operation: one autoscrub tick, one
        ``read_latency`` sample (the sum over the fPages sensed).

        Raises :class:`UncorrectableError` if any page in the range is
        unreadable (partial large reads are not useful to the diFS): a
        ``LOST`` member before any sense, a failed sense once every LBA
        wanted from its fPage is marked lost.
        """
        if count <= 0:
            raise ConfigError(f"count must be positive, got {count!r}")
        self._check_lba(lba)
        self._check_lba(lba + count - 1)
        self.stats.host_reads += count
        # Before the map is sliced: a sweep relocates pages.
        self._maybe_autoscrub()
        slots = self._l2p[lba:lba + count]
        buffered_at = self.buffer._entries.get
        opage_bytes = self.geometry.opage_bytes
        spf = self._slots_per_fpage_max
        # Resolve every LBA first; group flash-resident ones by fPage.
        results: list[bytes] = [b""] * count
        by_fpage: dict[int, list[int]] = {}
        for offset, slot in enumerate(slots):
            buffered = buffered_at(lba + offset)
            if buffered is not None:    # newer than any slot, LOST or not
                results[offset] = buffered.ljust(opage_bytes, b"\0")
            elif slot >= 0:
                by_fpage.setdefault(slot // spf, []).append(offset)
            elif slot == UNMAPPED:
                results[offset] = bytes(opage_bytes)
            else:
                raise UncorrectableError(
                    f"LBA {lba + offset}: data lost to an earlier media "
                    f"error", bit_errors=-1, correctable=-1)
        total_latency = 0.0
        for fpage, wanted in by_fpage.items():
            try:
                payloads, latency = self.chip.read(fpage)
            except UncorrectableError:
                for offset in wanted:
                    self._lose_lba(lba + offset, slots[offset])
                raise
            total_latency += latency
            base = fpage * spf
            for offset in wanted:
                results[offset] = payloads[slots[offset] - base].ljust(
                    opage_bytes, b"\0")
        if by_fpage:
            self.stats.read_latency.add(total_latency)
        return results

    def trim(self, lba: int) -> None:
        """Discard ``lba``'s data; subsequent reads return zeros."""
        self._check_lba(lba)
        self.stats.trims += 1
        self.buffer.discard(lba)
        self._note_unbuffered(lba)
        self._unmap(lba)

    def trim_range(self, lba: int, count: int) -> None:
        """Discard ``count`` consecutive LBAs (one DSM/deallocate command).

        Hosts issue trims in ranges (a deleted file's extents), and doing
        it in one call keeps the invalidation bookkeeping O(range).
        """
        if count <= 0:
            raise ConfigError(f"count must be positive, got {count!r}")
        self._check_lba(lba)
        self._check_lba(lba + count - 1)
        self.stats.trims += count
        for target in range(lba, lba + count):
            self.buffer.discard(target)
            self._note_unbuffered(target)
            self._unmap(target)

    def flush(self) -> None:
        """Drain the write buffer completely (fPages may be padded)."""
        while len(self.buffer) > 0:
            self._drain_one_fpage()

    def background_tick(self, max_collections: int = 1,
                        watermark_blocks: int | None = None) -> int:
        """Idle-time garbage collection: pre-free blocks off the host path.

        Foreground GC runs inside a host write and is exactly where write
        p99 comes from (see ABL-OP). Hosts with idle windows call this to
        do the same work ahead of time. Collects up to ``max_collections``
        victim blocks while the free pool sits below ``watermark_blocks``
        (default: reserve + 2).

        Returns the number of collections performed.
        """
        if max_collections < 0:
            raise ConfigError(
                f"max_collections must be >= 0, got {max_collections!r}")
        if watermark_blocks is None:
            watermark_blocks = self.config.gc_reserve_blocks + 2
        performed = 0
        while (performed < max_collections
               and len(self._usable_free_blocks()) < watermark_blocks):
            try:
                self._attributed("gc", self._gc_once, counter="gc_passes")
            except OutOfSpaceError:
                break  # nothing collectible right now
            performed += 1
        return performed

    def _read_live(self, fpage: int, count: int) -> tuple[list, list]:
        """The valid oPages of ``count`` fPages from ``fpage`` on, as
        ``(lbas, payloads)`` — the relocation reader of GC and scrub.

        One ``_p2l`` slice finds the live slots (a mapped slot always
        sits on a WRITTEN fPage, as ``_audit_fastpath`` checks); each is
        read by one point :meth:`FlashChip.read`, in fPage and slot
        order. Slots that fail ECC are recorded as lost and skipped.
        """
        spf = self._slots_per_fpage_max
        base = fpage * spf
        read = self.chip.read
        # A slice is a copy: ``_lose_lba`` writes ``_p2l`` mid-loop.
        owners = self._p2l[base:base + count * spf]
        lbas: list[int] = []
        payloads: list[bytes] = []
        for offset, lba in enumerate(owners):
            if lba < 0:
                continue
            try:
                data, _latency = read(fpage + offset // spf, offset % spf)
            except UncorrectableError:
                self._lose_lba(lba, base + offset)
                continue
            lbas.append(lba)
            payloads.append(data)
        return lbas, payloads

    # -- capacity accounting ---------------------------------------------------

    def usable_opage_slots(self) -> int:
        """Physical oPage slots usable at current tiredness levels.

        This is the left-hand side of the paper's Eq. 2 (summed over limbo
        levels): each non-retired fPage at level ``L`` contributes ``P - L``
        slots. Served from the chip's incremental per-block accounting.
        """
        return self.chip.usable_slots_total()

    def live_lbas(self) -> int:
        """LBAs currently holding data (mapped or buffered).

        The mapped count is maintained incrementally by ``_map``/
        ``_unmap`` (``_live_lbas_scan`` is the reference recomputation,
        asserted equivalent in the fast-path tests); only the small NVRAM
        buffer is scanned for buffered-but-unmapped keys.
        """
        buffered_unmapped = sum(
            1 for key in self.buffer.keys() if self._l2p[key] < 0)
        return self._mapped_lbas + buffered_unmapped

    def _live_lbas_scan(self) -> int:
        """O(n_lbas) reference implementation of :meth:`live_lbas`."""
        mapped = sum(1 for slot in self._l2p if slot >= 0)
        buffered_unmapped = sum(
            1 for key in self.buffer.keys() if self._l2p[key] < 0)
        return mapped + buffered_unmapped

    def free_block_count(self) -> int:
        return len(self._free_blocks)

    def _audit_fastpath(self) -> None:
        """Assert the incremental fast-path state equals a full recompute.

        Debug/test aid for the invariants in docs/PERFORMANCE.md: every
        counter or cached array introduced by the fast path must equal
        the O(n) scan it replaced, at any externally observable moment.
        Raises ``AssertionError`` on divergence.
        """
        # The maps are lists of Python ints: a numpy scalar stored into
        # one would still compare equal, and slow every later touch.
        for name, size in (("_l2p", self.n_lbas),
                           ("_p2l", self.geometry.total_opage_slots),
                           ("_valid_counts", self.geometry.blocks)):
            cells = getattr(self, name)
            assert (type(cells) is list and len(cells) == size
                    and set(map(type, cells)) == {int}), (
                f"{name} representation diverged: not a list of {size} ints")
        mapped = sum(1 for slot in self._l2p if slot >= 0)
        assert self._mapped_lbas == mapped, (
            f"mapped-LBA counter {self._mapped_lbas} != scan {mapped}")
        assert self.live_lbas() == self._live_lbas_scan()
        buffered = set(self.buffer.keys())
        assert set(self._buffer_stream) == buffered, (
            "buffer-stream bookkeeping diverged from buffer contents")
        counts = [0] * self.config.host_streams
        for lba in buffered:
            counts[self._buffer_stream.get(lba, 0)] += 1
        assert counts == self._stream_counts, (
            f"stream counts {self._stream_counts} != scan {counts}")
        expected_free = sorted(
            b for b in self._free_blocks if self._block_usable(b))
        assert self._usable_free_blocks().tolist() == expected_free, (
            "cached usable-free-block array diverged from scan")
        assert self._closed_blocks.array().tolist() == sorted(
            self._closed_blocks), "closed-block array diverged"
        states = self.chip.state_array()
        levels = self.chip.level_array()
        per_fpage = np.where(states == 2, 0, self.policy.dead_level - levels)
        per_block = per_fpage.reshape(
            self.geometry.blocks, self.geometry.fpages_per_block).sum(axis=1)
        all_blocks = np.arange(self.geometry.blocks)
        chip_caps = self.chip.usable_slots_of_blocks(all_blocks)
        assert (chip_caps == per_block).all(), (
            "per-block usable-slot accounting diverged from scan")
        assert self.chip.usable_slots_total() == int(per_block.sum())
        retired = (states == 2).reshape(
            self.geometry.blocks, self.geometry.fpages_per_block).sum(axis=1)
        for block in range(self.geometry.blocks):
            assert self.chip.block_fully_retired(block) == bool(
                retired[block] == self.geometry.fpages_per_block), (
                f"block {block} fully-retired flag diverged")
        valid = [0] * self.geometry.blocks
        for slot, lba in enumerate(self._p2l):
            if lba >= 0:
                valid[slot // self._slots_per_block] += 1
        assert valid == self._valid_counts, (
            "valid-per-block accounting diverged from p2l scan")
        l2p = np.array(self._l2p)
        mapped_lbas = np.flatnonzero(l2p >= 0)
        slots_of_mapped = l2p[mapped_lbas]
        assert len(set(slots_of_mapped.tolist())) == slots_of_mapped.size, (
            "l2p maps two LBAs to one physical slot")
        assert (np.array(self._p2l)[slots_of_mapped] == mapped_lbas).all(), (
            "l2p/p2l bijection broken for mapped LBAs")
        assert (states[slots_of_mapped // self._slots_per_fpage_max]
                == 1).all(), "a mapped slot sits on an fPage not WRITTEN"
        self.chip._audit_read_costs()
        self.chip._audit_store()

    # -- internals: mapping ----------------------------------------------------

    def _check_lba(self, lba: int) -> None:
        if not 0 <= lba < self.n_lbas:
            raise InvalidLBAError(
                f"LBA {lba} out of range [0, {self.n_lbas})")

    @property
    def _valid_per_block(self) -> np.ndarray:
        """Vector view of per-block valid-oPage counts (copy)."""
        return np.array(self._valid_counts)

    def _unmap(self, lba: int) -> None:
        slot = self._l2p[lba]
        if slot >= 0:
            self._p2l[slot] = UNMAPPED
            self._valid_counts[slot // self._slots_per_block] -= 1
            self._mapped_lbas -= 1
        self._l2p[lba] = UNMAPPED

    def _map(self, lba: int, slot: int) -> None:
        # _unmap inlined: this pair runs once per oPage programmed.
        prev = self._l2p[lba]
        if prev >= 0:
            self._p2l[prev] = UNMAPPED
            self._valid_counts[prev // self._slots_per_block] -= 1
            self._mapped_lbas -= 1
        self._l2p[lba] = slot
        self._p2l[slot] = lba
        self._valid_counts[slot // self._slots_per_block] += 1
        self._mapped_lbas += 1

    # -- internals: incremental buffer/stream accounting -----------------------

    def _note_unbuffered(self, lba: int) -> None:
        """Record that ``lba`` left the buffer (trim or decommission)."""
        stream = self._buffer_stream.pop(lba, None)
        if stream is not None:
            self._stream_counts[stream] -= 1

    def _lose_lba(self, lba: int, slot: int) -> None:
        """Mark an LBA destroyed by a media error."""
        self._unmap(lba)
        self._l2p[lba] = LOST
        self.stats.uncorrectable_reads += 1
        self.stats.lost_opages += 1

    # -- internals: allocation and programming ---------------------------------

    def _drain_one_fpage(self) -> None:
        """Move one fPage worth of buffered oPages onto flash.

        Drains the stream with the most buffered pages, into that stream's
        own open block.

        Durability ordering (ack-before-persist, docs/FAULTS.md): the
        batch is *peeked*, programmed, and only then removed from the
        NVRAM buffer. Entries these acked writes map to must never leave
        NVRAM before the flash program that persists them completes — a
        crash between a pop and the program would silently lose acked
        data (the crash-consistency harness regression-tests this).
        """
        self._ensure_free_space()
        stream = self._busiest_stream()
        key = self._host_keys[stream]
        fpage, level = self._allocate_open_fpage(key)
        streams = self._buffer_stream
        lbas, payloads = self.buffer.peek_batch(
            self._data_opages[level],
            where=None if self.config.host_streams == 1
            else lambda lba: streams.get(lba, 0) == stream)
        injector = self._faults
        if injector is not None:
            injector.crash_if("ftl.drain.pre_program", fpage=fpage)
        while True:
            try:
                self._program_fpage(fpage, level, lbas, payloads,
                                    relocation=False)
                break
            except ProgramFaultError:
                # Media refused the program; the batch is still safe in
                # NVRAM. Retire the page and retry on a fresh one (whose
                # capacity may be smaller if it sits at a higher level —
                # the surplus simply stays buffered).
                self._on_program_fault(fpage)
                self._ensure_free_space()
                fpage, level = self._allocate_open_fpage(key)
                capacity = self._data_opages[level]
                lbas, payloads = lbas[:capacity], payloads[:capacity]
        if injector is not None:
            injector.crash_if("ftl.drain.post_program", fpage=fpage)
        # ``buffer.discard`` / ``_note_unbuffered`` per key, in place.
        entries = self.buffer._entries
        counts = self._stream_counts
        for lba in lbas:
            entries.pop(lba, None)
            buffered_as = streams.pop(lba, None)
            if buffered_as is not None:
                counts[buffered_as] -= 1
        self._maybe_autoscrub()

    def _busiest_stream(self) -> int:
        """Stream with the most buffered pages (incremental counts)."""
        if self.config.host_streams == 1:
            return 0
        counts = self._stream_counts
        return int(max(range(len(counts)), key=counts.__getitem__))

    def _program_fpage(self, fpage: int, level: int, lbas: list[int],
                       payloads: list[bytes], relocation: bool) -> None:
        """Program ``fpage``, allocated here at ``level``, with one
        payload per LBA — no more than its capacity; the chip stores each
        as given and fills the slots past them — and map them."""
        self._write_seq += 1
        self.chip.program_trusted(fpage, level, lbas, payloads,
                                  self._write_seq)
        # Mapping inlined from _map: every new slot lands in one block,
        # so the per-block valid count bumps once, not per oPage. LBAs
        # within one programmed batch are distinct (buffer keys / one
        # survivor per slot).
        base = fpage * self._slots_per_fpage_max
        l2p = self._l2p
        p2l = self._p2l
        counts = self._valid_counts
        spb = self._slots_per_block
        n_items = len(lbas)
        delta = 0
        slot = base
        for lba in lbas:
            prev = l2p[lba]
            if prev >= 0:
                p2l[prev] = UNMAPPED
                counts[prev // spb] -= 1
                delta -= 1
            l2p[lba] = slot
            p2l[slot] = lba
            slot += 1
        counts[base // spb] += n_items
        self._mapped_lbas += delta + n_items
        self.stats.flash_writes += n_items
        if relocation:
            self.stats.gc_relocations += n_items

    def _program_items(self, lbas: list[int], payloads: list[bytes],
                       relocation: bool) -> None:
        """Pack ``lbas``/``payloads`` densely into relocation's open
        fPages — the chunking loop of GC and scrubbing.

        Injected program failures retire the refused target page and the
        same chunk retries on a fresh allocation — relocation never
        drops a payload it already holds in DRAM.
        """
        cursor = 0
        while cursor < len(lbas):
            target, level = self._allocate_open_fpage(self._gc_key)
            end = cursor + self._data_opages[level]
            try:
                self._program_fpage(target, level, lbas[cursor:end],
                                    payloads[cursor:end], relocation)
            except ProgramFaultError:
                self._on_program_fault(target)
                continue
            cursor = end

    def _on_program_fault(self, fpage: int) -> None:
        """A program operation was refused by the media: retire the page.

        The chip leaves a refused page FREE and unmodified, so taking it
        out of service is the whole cleanup; callers retry their payload
        on a fresh page (real firmware does the same on program-status
        failures).
        """
        self.chip.retire(fpage)
        self.stats.retired_fpages += 1
        if self._faults is not None:
            self._faults.record_degraded("retire_program_fail")
        rt = self._reqtrace
        if rt is not None and rt.active is not None:
            rt.active.bump("program_retries")

    def _allocate_open_fpage(self, key: str) -> tuple[int, int]:
        """Next programmable fPage in open block ``key``, and its level."""
        chip = self.chip
        fpages_per_block = self.geometry.fpages_per_block
        while True:
            if self._open[key] is None:
                self._open_new_block(key)
            block, cursor = self._open[key]
            start = block * fpages_per_block
            # Wear-required levels for the whole tenure, vectorised once
            # at block open (PEC cannot change while the block is open;
            # None when read disturb makes per-page RBER time-varying).
            cached = self._open_required.get(key)
            req_arr = (cached[1] if cached is not None
                       and cached[0] == block else None)
            while cursor < fpages_per_block:
                fpage = start + cursor
                cursor += 1
                if not chip.is_free(fpage):
                    continue
                if not self._page_allocatable(fpage):
                    continue
                required = (req_arr[fpage - start] if req_arr is not None
                            else chip.required_level(fpage))
                level = chip.level(fpage)
                if required > level:
                    # Detected lazily at allocation; hand to policy. The page
                    # may come back usable (promoted, or tolerated by CVSS).
                    # Cursor is persisted first so the policy hook (which
                    # may retire blocks or raise) sees consistent state.
                    self._open[key] = (block, cursor)
                    self._wear_epoch += 1
                    still_usable = self._handle_worn_page(fpage, required)
                    if not still_usable or not chip.is_free(fpage):
                        continue
                    level = chip.level(fpage)
                self._open[key] = (block, cursor)
                return fpage, level
            self._open[key] = (block, fpages_per_block)
            self._close_open_block(key)

    def _open_new_block(self, key: str) -> None:
        usable = self._usable_free_blocks()
        host = key.startswith("host")
        if host and len(usable) <= self.config.gc_reserve_blocks:
            # Host writes must leave the GC reserve intact.
            usable = usable[:max(0, len(usable)
                                 - self.config.gc_reserve_blocks)]
        if usable.size == 0:
            raise OutOfSpaceError(
                "no free blocks available"
                + (" outside the GC reserve" if host else ""))
        block = select_min_wear_block(usable, self._erase_counts)
        self._free_blocks.discard(block)
        self._open[key] = (block, 0)
        self._open_required[key] = (
            (block, self.chip.required_levels_of_block(block).tolist())
            if self.chip.read_disturb_rber == 0 else None)

    def _usable_free_blocks(self) -> np.ndarray:
        """Ascending usable free blocks, served from the cached index."""
        return self._free_blocks.array()

    def _close_open_block(self, key: str) -> None:
        state = self._open[key]
        if state is None:
            return
        block, _cursor = state
        self._closed_blocks.add(block)
        self._open[key] = None
        self._open_required.pop(key, None)

    # -- internals: background work -------------------------------------------

    def _attributed(self, cause: str, work, *args, counter=None):
        """Run ``work(*args)`` as background work done for ``cause``.

        The endurance ledger charges its programs and erases to
        ``cause`` (innermost wins). When a sampled host request is
        mid-dispatch, the request absorbed it: its chip busy time lands
        in the request's ``cause`` segment, nested inside any segment
        already open (a GC forced by a scrub sits under ``scrub``), and
        ``counter``, if given, is bumped once. Returns what ``work``
        returns.
        """
        led = self._endurance
        rt = self._reqtrace
        ctx = rt.active if rt is not None else None
        if ctx is None and led is None:
            return work(*args)
        with nullcontext() if led is None else led.cause(cause):
            if ctx is None:
                return work(*args)
            ctx.enter(cause, self.chip.stats.busy_us)
            if counter is not None:
                ctx.bump(counter)
            try:
                return work(*args)
            finally:
                ctx.exit(self.chip.stats.busy_us)

    # -- internals: garbage collection ------------------------------------------

    def _ensure_free_space(self) -> None:
        """Run GC until host writes have a block outside the reserve."""
        guard = 2 * self.geometry.blocks
        while (len(self._usable_free_blocks())
               <= self.config.gc_reserve_blocks):
            if guard == 0:
                raise OutOfSpaceError(
                    "garbage collection cannot reclaim space; device is "
                    "effectively full")
            guard -= 1
            self._attributed("gc", self._gc_once, counter="gc_passes")

    def _gc_once(self) -> None:
        """Relocate one victim block's valid data and erase it: a
        collection's victim reads, relocation programs and erase are all
        GC's burn, and a GC stall to a request it lands inside (callers
        run it under :meth:`_attributed`)."""
        # Sweep out blocks with nothing left to reclaim: condemned (or fully
        # retired) blocks that hold no valid data are dead, not candidates.
        # Only zero-valid candidates can qualify, so the sweep inspects
        # those instead of walking every closed block.
        candidates = self._closed_blocks.array()
        valid_arr = np.array(self._valid_counts)  # once per pass
        if candidates.size:
            swept = False
            for block in candidates[valid_arr[candidates] == 0]:
                block = int(block)
                if (not self._block_usable(block)
                        or self._block_is_dead(block)):
                    self._closed_blocks.discard(block)
                    self._dead_blocks.add(block)
                    swept = True
            if swept:
                candidates = self._closed_blocks.array()
        if candidates.size == 0:
            raise OutOfSpaceError("no closed blocks to garbage-collect")
        valid = valid_arr[candidates]
        capacities = self._block_capacities(candidates)
        victim = self._gc.pick(candidates, valid, capacities)
        injector = self._faults
        if injector is not None:
            # Crash points bracketing the two non-atomic halves of a
            # collection. Each sits *between* atomic chip operations:
            # valid data either still lives in the victim (pre-erase) or
            # already lives, with a newer write sequence, in the blocks
            # relocation filled — so remount recovers either way.
            injector.crash_if("gc.pre_relocate", block=int(victim))
        self._relocate_block(victim)
        if injector is not None:
            injector.crash_if("gc.pre_erase", block=int(victim))
        self._erase_block(victim)
        if injector is not None:
            injector.crash_if("gc.post_erase", block=int(victim))

    def _block_capacities(self, blocks: np.ndarray) -> np.ndarray:
        return self.chip.usable_slots_of_blocks(blocks)

    def _relocate_block(self, block: int) -> None:
        """Move every valid oPage out of ``block`` (into open fPages)."""
        fpages = self.geometry.fpages_per_block
        lbas, payloads = self._read_live(block * fpages, fpages)
        # Pack survivors densely: fill each target fPage to its capacity.
        self._program_items(lbas, payloads, relocation=True)

    def _erase_block(self, block: int) -> None:
        """Erase ``block`` and run wear-transition detection on its pages."""
        self._closed_blocks.discard(block)
        if self._block_is_dead(block):
            # Every page retired while the block was closed; nothing to erase.
            self._dead_blocks.add(block)
            return
        try:
            self.chip.erase(block)
        except EraseFaultError:
            self._condemn_block(block)
            return
        self._erase_counts[block] += 1
        self.stats.erases += 1
        # Wear-transition detection: right after the erase, read disturb
        # is reset and FREE pages carry no retention term, so the chip's
        # vectorised wear-only sweep is exact here.
        worn = self.chip.worn_free_pages(block)
        self._wear_epoch += len(worn)
        for fpage, required in worn:
            self._handle_worn_page(fpage, required)
        if not self._block_usable(block):
            # Condemned by policy (e.g. baseline bad-block rule): nothing in
            # it may be reused, so its free pages leave service too.
            for fpage in self.geometry.fpage_range_of_block(block):
                if self.chip.is_free(fpage):
                    self.chip.retire(fpage)
            self._dead_blocks.add(block)
        elif self._block_is_dead(block):
            self._dead_blocks.add(block)
        else:
            self._free_blocks.add(block)
        if worn:
            self._after_wear_event(block, [f for f, _ in worn])

    def _condemn_block(self, block: int) -> None:
        """An erase failure takes the whole block out of service.

        Standard firmware behaviour: every page is retired (their
        contents were already relocated — ``_erase_block`` runs after
        relocation, so nothing valid remains), the block joins the dead
        set, and the device-policy hook may additionally ledger it.
        """
        self._wear_epoch += 1
        retired = 0
        for fpage in self.geometry.fpage_range_of_block(block):
            if self.chip.is_free(fpage) or self.chip.is_written(fpage):
                self.chip.retire(fpage)
                retired += 1
        self.stats.retired_fpages += retired
        self._free_blocks.discard(block)
        self._dead_blocks.add(block)
        if self._faults is not None:
            self._faults.record_degraded("condemn_erase_fail")
        self._block_condemned(block)
        self._after_wear_event(block, [])

    def _block_condemned(self, block: int) -> None:
        """Policy hook: a block left service due to an erase failure.

        Default: nothing beyond the base bookkeeping. The baseline
        device ledgers the block so the brick threshold sees it.
        """

    def _block_is_dead(self, block: int) -> bool:
        return self.chip.block_fully_retired(block)

    # -- policy hooks ------------------------------------------------------------

    def _handle_worn_page(self, fpage: int, required_level: int) -> bool:
        """A free page's RBER outgrew its level's ECC; decide its fate.

        Default (Salamander-style mechanism): promote the page up to
        ``config.max_level`` if that suffices, otherwise retire it.
        Subclasses override for block-granular policies.

        Returns:
            Whether the page remains usable for new writes.
        """
        if required_level <= self.config.max_level:
            self.chip.set_level(fpage, required_level)
            return self.chip.is_free(fpage)
        self.chip.retire(fpage)
        self.stats.retired_fpages += 1
        return False

    def _after_wear_event(self, block: int, worn_fpages: list[int]) -> None:
        """Called after wear transitions in ``block``; default: nothing."""

    def _admit_write(self, lba: int) -> int:
        """Raise unless the device takes a host write to ``lba`` now;
        return the first LBA above it the answer does not cover.

        Default: no gate. The baseline device refuses once bricked or
        read-only, CVSS beyond its shrunk capacity, Salamander outside
        an ACTIVE minidisk.
        """
        return self.n_lbas

    def _exhaust(self) -> None:
        """A host write's drain ran out of space (the error is on its
        way up). Default: nothing; the device flavours die of it."""

    def _block_usable(self, block: int) -> bool:
        """Whether policy still allows allocating from ``block``.

        Default: always. The baseline device vetoes blocks on its bad-block
        ledger, reproducing block-granular retirement.
        """
        return True

    def _page_allocatable(self, fpage: int) -> bool:
        """Whether policy allows programming this free page right now.

        Default: always. Salamander vetoes pages parked in limbo.
        """
        return True

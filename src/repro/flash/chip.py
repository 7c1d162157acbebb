"""A functional flash chip with wear tracking and bit-error injection.

This is the lowest layer the FTLs (baseline and Salamander) build on. It
implements real NAND semantics:

* program happens at fPage granularity, reads at oPage granularity;
* a written fPage cannot be reprogrammed until its whole block is erased;
* erasing a block increments the PEC of every fPage in it;
* each fPage has a private process-variation factor, so pages in the same
  block wear at different *effective* rates (the property Salamander
  exploits by retiring pages individually, §3);
* each read samples a binomial number of bit flips from the page's current
  RBER; if the count exceeds the active ECC's correction capability the
  read raises :class:`~repro.errors.UncorrectableError`, otherwise ECC
  corrects silently and pristine data is returned.

The chip stores real payload bytes, so data-integrity tests can round-trip
content through wear, garbage collection and relocation. Devices in tests
and examples are MiB-scale, which keeps that affordable; year-scale fleet
experiments use the vectorised models in :mod:`repro.sim.fleet` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from repro import context
from repro.errors import (
    ConfigError,
    EraseError,
    EraseFaultError,
    ProgramError,
    ProgramFaultError,
    UncorrectableError,
)
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import LatencyModel
from repro.flash.rber import RBERModel, lognormal_page_variation
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.rng import make_rng


class PageState(Enum):
    """Lifecycle of one fPage between erases."""

    FREE = "free"          # erased, programmable
    WRITTEN = "written"    # programmed, readable
    RETIRED = "retired"    # permanently removed from service


@dataclass
class ChipStats:
    """Operation counters and accumulated expected latency.

    ``busy_us`` is total serial device time; per-channel busy time lives on
    the chip (``channel_busy_us``) because parallel makespan depends on
    which channels the operations landed on.
    """

    reads: int = 0
    programs: int = 0
    erases: int = 0
    uncorrectable_reads: int = 0
    read_retries: float = 0.0
    busy_us: float = 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "reads": self.reads,
            "programs": self.programs,
            "erases": self.erases,
            "uncorrectable_reads": self.uncorrectable_reads,
            "read_retries": self.read_retries,
            "busy_us": self.busy_us,
        }


class FlashChip:
    """Functional NAND chip: wear, tiredness levels, error injection.

    Args:
        geometry: physical layout.
        rber_model: wear-to-RBER mapping; defaults to the calibrated power
            law from :func:`repro.flash.tiredness.calibrate_power_law`.
        policy: tiredness policy (per-level ECC); defaults to the geometry's.
        latency: latency model for expected-time accounting.
        variation_sigma: lognormal sigma of per-fPage RBER variation; 0
            makes every page identical (useful in deterministic tests).
        seed: RNG seed or generator for variation and error sampling.
        inject_errors: when False, reads never fail (fast-path for logic
            tests that do not care about reliability).
        read_disturb_rber: additive RBER contributed by each read of a
            page since its block's last erase (the paper's §2 "read
            disturbances from neighboring pages"). 0 (default) disables;
            typical modelled values are ~1e-9..1e-8 per read.
        retention_rber_per_day: additive RBER per day a page has held data
            (charge leak — §2's other wear-independent error source).
            Requires ``now_fn``; 0 (default) disables.
        now_fn: simulated-time source (seconds), a zero-argument
            callable. Only needed when retention is modelled.
    """

    def __init__(
        self,
        geometry: FlashGeometry | None = None,
        *,
        rber_model: RBERModel | None = None,
        policy: TirednessPolicy | None = None,
        latency: LatencyModel | None = None,
        variation_sigma: float = 0.35,
        seed: int | np.random.Generator | None = None,
        inject_errors: bool = True,
        read_disturb_rber: float = 0.0,
        retention_rber_per_day: float = 0.0,
        now_fn=None,
    ) -> None:
        self.geometry = geometry or FlashGeometry()
        self.policy = policy or TirednessPolicy(geometry=self.geometry)
        if self.policy.geometry != self.geometry:
            raise ConfigError("policy geometry does not match chip geometry")
        self.rber_model = rber_model or calibrate_power_law(self.policy)
        self.latency = latency or LatencyModel()
        self.rng = make_rng(seed)
        self.inject_errors = inject_errors
        if read_disturb_rber < 0:
            raise ConfigError(
                f"read_disturb_rber must be non-negative, "
                f"got {read_disturb_rber!r}")
        self.read_disturb_rber = read_disturb_rber
        if retention_rber_per_day < 0:
            raise ConfigError(
                f"retention_rber_per_day must be non-negative, "
                f"got {retention_rber_per_day!r}")
        if retention_rber_per_day > 0 and now_fn is None:
            raise ConfigError(
                "retention modelling needs a now_fn time source")
        self.retention_rber_per_day = retention_rber_per_day
        self.now_fn = now_fn
        self.stats = ChipStats()
        # The run context binds at construction (None ⇒ hooks are a
        # single attribute test; docs/OBSERVABILITY.md, "Run context"):
        # the fault injector, the request tracer whose sampled request
        # read paths charge retry excess / ECC level to, and the wear
        # ledger the chip registers with so every program/erase is
        # charged to its current cause (repro.obs.endurance).
        ctx = context.current()
        self._faults = ctx.faults
        self._reqtrace = ctx.reqtrace
        self._endurance = (None if ctx.endurance is None
                           else ctx.endurance.register_device(
                               self.geometry.blocks))

        n = self.geometry.total_fpages
        self._total_fpages = n
        # Per-channel accumulated busy time: blocks are striped across
        # channels (block % channels), the usual plane/channel layout.
        # Independent-channel operations overlap, so a parallel device's
        # makespan is the busiest channel, not the serial sum.
        self.channel_busy_us = [0.0] * self.geometry.channels
        self._channels = self.geometry.channels
        self._pec = np.zeros(n, dtype=np.int64)
        self._level = np.zeros(n, dtype=np.int64)
        # Python-list mirror of ``_level``: levels are read per operation
        # on the hot path but written only on (rare) wear transitions, so
        # a list mirror makes the reads cheap while the numpy array stays
        # canonical for the vectorised sweeps.
        self._level_py: list[int] = [0] * n
        self._reads_since_erase = np.zeros(n, dtype=np.int64)
        self._programmed_at = np.zeros(n, dtype=float)
        self._state = np.full(n, _STATE_FREE, dtype=np.int8)
        self._variation = lognormal_page_variation(
            self.rng, n, sigma=variation_sigma)
        # Payloads of written fPages, one tuple of oPage byte strings per
        # fPage as programmed; None holds nothing (like ``_level_py``, a
        # list sized by geometry).
        self._data: list[tuple[bytes, ...] | None] = [None] * n
        # Out-of-band metadata, in two columns: the LBA of each oPage slot
        # (indexed like the FTL's ``_p2l``; None past a written page's
        # LBA-bearing slots) and each fPage's monotonically increasing
        # write sequence (None: no OOB). Real FTLs stash this in the spare
        # area and replay it at mount time after power loss (read_oob).
        self._slots_per_fpage = self.geometry.opages_per_fpage
        self._oob_lbas: list[int | None] = [
            None] * self.geometry.total_opage_slots
        self._oob_seq: list[int | None] = [None] * n

        # -- hot-path lookup tables (docs/PERFORMANCE.md) -----------------
        # Everything below is derived once from immutable policy/geometry
        # state; per-read code must not re-derive it. The per-level ECC
        # schemes in particular used to be *constructed* per read.
        self._fpages_per_block = self.geometry.fpages_per_block
        self._opage_bytes = self.geometry.opage_bytes
        # Fills the slots no payload does (shared: bytes are immutable).
        self._zero_opage = bytes(self._opage_bytes)
        self._dead_level = self.policy.dead_level
        self._data_opages_by_level = tuple(
            self.policy.data_opages(level) for level in self.policy.levels)
        self._ecc_by_level = tuple(
            self.policy.ecc_for_level(level)
            for level in self.policy.usable_levels)
        self._ecc_t_by_level = tuple(
            ecc.correctable_bits for ecc in self._ecc_by_level)
        self._max_rber_by_level = tuple(
            self.policy.max_rber(level)
            for level in self.policy.usable_levels)
        self._caps_array = np.asarray(self._max_rber_by_level, dtype=float)
        self._caps_ascending = bool(
            np.all(self._caps_array[:-1] <= self._caps_array[1:]))
        self._opage_transfer_us = (self.latency.transfer_us_per_kib
                                   * self.geometry.opage_bytes / 1024)
        self._fpage_transfer_us_by_level = tuple(
            self.latency.transfer_us_per_kib
            * (slots * self.geometry.opage_bytes) / 1024
            for slots in self._data_opages_by_level[:-1])
        self._program_latency_by_level = tuple(
            self.latency.program_latency_us(
                slots * self.geometry.opage_bytes + self.geometry.spare_bytes)
            for slots in self._data_opages_by_level)
        # Wear term rber_model.rber(pec) memoised per PEC value (the
        # per-page variation factor multiplies in afterwards).
        self._base_rber_cache: dict[int, float] = {}
        # ``_read_cost`` of written fPages, from first read until the
        # data goes; stays empty with read disturb or retention modelled.
        self._read_costs: dict[int, tuple] = {}
        # Per-block capacity accounting (the paper's Eq. 2 inputs),
        # maintained incrementally by set_level/retire so capacity
        # queries stop scanning every fPage on the chip.
        self._block_usable_slots = np.full(
            self.geometry.blocks,
            self._fpages_per_block * self._dead_level, dtype=np.int64)
        self._block_retired_fpages = np.zeros(self.geometry.blocks,
                                              dtype=np.int64)

    # -- wear and reliability introspection ---------------------------------

    def pec(self, fpage: int) -> int:
        """P/E cycles the block containing ``fpage`` has endured."""
        self.geometry.check_fpage(fpage)
        return int(self._pec[fpage])

    def level(self, fpage: int) -> int:
        """Current tiredness level of ``fpage``."""
        if not 0 <= fpage < self._total_fpages:
            raise IndexError(
                f"fPage {fpage} out of range [0, {self._total_fpages})")
        return self._level_py[fpage]

    def state(self, fpage: int) -> PageState:
        self.geometry.check_fpage(fpage)
        return _STATE_TO_ENUM[int(self._state[fpage])]

    def variation(self, fpage: int) -> float:
        """The page's private RBER scale factor (process variation)."""
        self.geometry.check_fpage(fpage)
        return float(self._variation[fpage])

    def rber_of(self, fpage: int) -> float:
        """Current effective RBER of ``fpage``: wear + disturb + retention."""
        if not 0 <= fpage < self._total_fpages:
            raise IndexError(
                f"fPage {fpage} out of range [0, {self._total_fpages})")
        return self._rber_unchecked(fpage)

    def _wear_rber(self, fpage: int) -> float:
        """Wear term of the RBER: model(pec) memoised, times variation."""
        pec = int(self._pec[fpage])
        base = self._base_rber_cache.get(pec)
        if base is None:
            base = float(self.rber_model.rber(pec))
            self._base_rber_cache[pec] = base
        return base * float(self._variation[fpage])

    def _rber_unchecked(self, fpage: int) -> float:
        """``rber_of`` without the bounds check (internal hot path)."""
        wear = self._wear_rber(fpage)
        disturb = self.read_disturb_rber * float(
            self._reads_since_erase[fpage]) if self.read_disturb_rber else 0.0
        retention = 0.0
        if (self.retention_rber_per_day > 0
                and int(self._state[fpage]) == _STATE_WRITTEN):
            age_days = max(0.0, (self.now_fn()
                                 - float(self._programmed_at[fpage]))
                           / 86400.0)
            retention = self.retention_rber_per_day * age_days
        return wear + disturb + retention

    def data_age_days(self, fpage: int) -> float:
        """Days since this page was programmed (0 without a time source)."""
        self.geometry.check_fpage(fpage)
        if self.now_fn is None or int(self._state[fpage]) != _STATE_WRITTEN:
            return 0.0
        return max(0.0, (self.now_fn()
                         - float(self._programmed_at[fpage])) / 86400.0)

    def reads_since_erase(self, fpage: int) -> int:
        """Reads this page's block has seen since its last erase."""
        self.geometry.check_fpage(fpage)
        return int(self._reads_since_erase[fpage])

    def required_level(self, fpage: int) -> int:
        """Lowest tiredness level whose ECC still covers ``fpage`` now.

        Uses the page's full effective RBER — wear *and* read disturb — so
        a heavily-read page can demand attention before its next erase.
        Returns the dead level when no usable level suffices. This is the
        signal ShrinkS/RegenS act on: when it exceeds the page's current
        level, the page must be retired or promoted.
        """
        rber = self.rber_of(fpage)
        return self._required_level_for(rber)

    def _required_level_for(self, rber: float) -> int:
        """Lowest usable level whose ECC covers ``rber`` (dead if none)."""
        for level, cap in enumerate(self._max_rber_by_level):
            if rber <= cap:
                return level
        return self._dead_level

    def is_overworn(self, fpage: int) -> bool:
        """Whether the page's RBER exceeds its *current* level's ECC."""
        return self.required_level(fpage) > self.level(fpage)

    def worn_free_pages(self, block: int) -> list[tuple[int, int]]:
        """``(fpage, required_level)`` for FREE pages past their level's ECC.

        Vectorised wear-only qualification sweep over one block, valid
        exactly when the FTL runs wear-transition detection: right after
        an erase, when read disturb has been reset and FREE pages accrue
        no retention term. PEC is block-uniform, so one memoised model
        evaluation covers the whole block.
        """
        self.geometry.check_block(block)
        start = block * self._fpages_per_block
        stop = start + self._fpages_per_block
        required = self._block_wear_required(block)
        worn = np.flatnonzero((self._state[start:stop] == _STATE_FREE)
                              & (required > self._level[start:stop]))
        return [(start + int(i), int(required[i])) for i in worn]

    def _block_wear_required(self, block: int) -> np.ndarray:
        """Wear-only required level for every fPage of ``block``.

        One memoised model evaluation covers the block (PEC is
        block-uniform); the per-page variation factor multiplies in.
        Matches :meth:`required_level` exactly whenever the disturb and
        retention terms are zero for the pages asked about.
        """
        start = block * self._fpages_per_block
        stop = start + self._fpages_per_block
        pec = int(self._pec[start])
        base = self._base_rber_cache.get(pec)
        if base is None:
            base = float(self.rber_model.rber(pec))
            self._base_rber_cache[pec] = base
        rber = base * self._variation[start:stop]
        if self._caps_ascending:
            return np.searchsorted(self._caps_array, rber, side="left")
        # pragma: no cover - non-monotone ECC ladders do not occur
        return np.array([self._required_level_for(float(r))
                         for r in rber], dtype=np.int64)

    def required_levels_of_block(self, block: int) -> np.ndarray:
        """Vectorised :meth:`required_level` for one block's FREE pages.

        Valid while read disturb is unmodelled (``read_disturb_rber ==
        0``): FREE pages accrue no retention term, so their effective
        RBER is exactly the wear term this sweep computes. The FTL's
        allocator caches this per open-block tenure instead of paying a
        model evaluation per allocated fPage.
        """
        self.geometry.check_block(block)
        return self._block_wear_required(block)

    # -- bulk views (vectorised; used by FTL policies) -----------------------

    def pec_array(self) -> np.ndarray:
        """Read-only copy of per-fPage PEC."""
        return self._pec.copy()

    def level_array(self) -> np.ndarray:
        return self._level.copy()

    def variation_array(self) -> np.ndarray:
        return self._variation.copy()

    def state_array(self) -> np.ndarray:
        """Int-coded states; compare against ``PageState`` via helpers."""
        return self._state.copy()

    def is_free(self, fpage: int) -> bool:
        """Fast FREE-state predicate (no enum materialisation)."""
        if not 0 <= fpage < self._total_fpages:
            raise IndexError(
                f"fPage {fpage} out of range [0, {self._total_fpages})")
        return int(self._state[fpage]) == _STATE_FREE

    def is_written(self, fpage: int) -> bool:
        """Fast WRITTEN-state predicate (no enum materialisation)."""
        if not 0 <= fpage < self._total_fpages:
            raise IndexError(
                f"fPage {fpage} out of range [0, {self._total_fpages})")
        return int(self._state[fpage]) == _STATE_WRITTEN

    def block_fully_retired(self, block: int) -> bool:
        """Whether every fPage of ``block`` is out of service (O(1))."""
        self.geometry.check_block(block)
        return (int(self._block_retired_fpages[block])
                >= self._fpages_per_block)

    def usable_slots_of_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Usable oPage slots per requested block at current levels.

        Each non-retired fPage at level ``L`` contributes ``P - L`` slots
        (the paper's Eq. 2 contributions), maintained incrementally.
        """
        return self._block_usable_slots[blocks]

    def usable_slots_total(self) -> int:
        """Usable oPage slots across the whole chip at current levels."""
        return int(self._block_usable_slots.sum())

    def retired_count(self) -> int:
        return int(np.count_nonzero(self._state == _STATE_RETIRED))

    def retired_mask(self) -> np.ndarray:
        """Boolean per-fPage retirement mask (True = out of service)."""
        return self._state == _STATE_RETIRED

    # -- operations ----------------------------------------------------------

    def program(self, fpage: int, payloads: Sequence[bytes],
                oob: tuple[tuple[int | None, ...], int] | None = None,
                ) -> float:
        """Program ``fpage`` with one payload per data oPage at its level.

        ``payloads`` must have exactly ``policy.data_opages(level)`` items,
        each at most ``opage_bytes`` long and stored as given (host reads
        zero-pad a short one, in the FTL).
        ``oob`` optionally records mount-time recovery metadata (per-slot
        LBA plus a write sequence number) in the spare area. Returns the
        expected latency in microseconds.
        """
        if not 0 <= fpage < self._total_fpages:
            raise IndexError(
                f"fPage {fpage} out of range [0, {self._total_fpages})")
        state = int(self._state[fpage])
        if state == _STATE_RETIRED:
            raise ProgramError(f"fPage {fpage} is retired")
        if state == _STATE_WRITTEN:
            raise ProgramError(
                f"fPage {fpage} already written; erase its block first")
        level = self._level_py[fpage]
        expected = self._data_opages_by_level[level]
        if expected == 0:
            raise ProgramError(f"fPage {fpage} is at the dead level")
        if len(payloads) != expected:
            raise ProgramError(
                f"fPage {fpage} at L{level} needs {expected} oPage payloads, "
                f"got {len(payloads)}")
        opage_bytes = self._opage_bytes
        for slot, payload in enumerate(payloads):
            if len(payload) > opage_bytes:
                raise ProgramError(
                    f"payload for slot {slot} is {len(payload)} bytes; "
                    f"oPages hold {opage_bytes}")
        lbas, sequence = (None, 0) if oob is None else oob
        if lbas is not None and len(lbas) != expected:
            raise ProgramError(
                f"oob records {len(lbas)} slots; fPage {fpage} at "
                f"L{level} has {expected}")
        return self.program_trusted(fpage, level, lbas,
                                    [bytes(p) for p in payloads],
                                    int(sequence))

    def program_trusted(self, fpage: int, level: int,
                        lbas: Sequence[int | None] | None,
                        payloads: Sequence[bytes], sequence: int) -> float:
        """The one program body — :meth:`program` after its checks, and
        the FTL's entry for the pages it allocated. Checks nothing:
        ``fpage`` is FREE at ``level`` (not dead), ``payloads`` are at
        most the level's data oPages of ``bytes`` no longer than an oPage,
        ``lbas`` one LBA (or ``None``) per payload, or ``None`` for no
        OOB. Payloads are stored as handed in, unpadded (an empty one as
        the shared ``_zero_opage``); slots past them hold ``_zero_opage``
        and map no LBA.
        """
        block = fpage // self._fpages_per_block
        if self._faults is not None:
            # Counted after validation: a hit is one well-formed program
            # attempt. An injected failure leaves the page FREE and
            # unmodified — the FTL decides whether to retire it.
            spec = self._faults.check("chip.program", fpage=fpage,
                                      block=block)
            if spec is not None:
                raise ProgramFaultError(
                    f"injected program failure at fPage {fpage}")
        if self.now_fn is not None:
            self._programmed_at[fpage] = float(self.now_fn())
        zero = self._zero_opage
        stored = tuple(payloads)
        if b"" in stored:
            stored = tuple([p or zero for p in stored])
        pad = self._data_opages_by_level[level] - len(stored)
        stored += (zero,) * pad
        if lbas is not None:
            base = fpage * self._slots_per_fpage
            self._oob_lbas[base:base + len(stored)] = (*lbas, *(None,) * pad)
            self._oob_seq[fpage] = sequence
        # Together: the read paths ask ``state == WRITTEN`` of ``_data``.
        self._data[fpage] = stored
        self._state[fpage] = _STATE_WRITTEN
        self.stats.programs += 1
        wear = self._endurance
        if wear is not None:
            # Data oPages actually carried: the LBA-bearing slots (pad
            # slots map none), or every slot of a raw program without
            # OOB — this is what makes the ledger's cause-summed oPages
            # reconcile exactly with ``SSDStats.flash_writes``.
            wear.record_program(len(stored) if lbas is None
                                else len(lbas) - lbas.count(None))
        latency = self._program_latency_by_level[level]
        self._charge(block, latency)
        return latency

    def _read_cost(self, fpage: int) -> tuple:
        """What reading written ``fpage`` costs: ``(level, data_slots,
        rber, retries, opage_latency_us, fpage_latency_us, channel)`` —
        the one derivation behind :meth:`read` and :meth:`read_fpage`.

        Without read disturb and retention it is a function of the page's
        PEC, variation and level, none of which can change under data
        (``set_level`` refuses a written page, PEC moves in ``erase``), so
        it is remembered until ``erase`` or ``retire`` drops the data; a
        chip modelling either term derives per read and never stores.
        ``inject_errors``, faults and reqtrace are not the page's and stay
        with the callers (docs/PERFORMANCE.md, "Kept state and the audits
        that hold it").
        Raises for a page out of range or not written.
        """
        if not 0 <= fpage < self._total_fpages:
            raise IndexError(
                f"fPage {fpage} out of range [0, {self._total_fpages})")
        if self._data[fpage] is None:
            raise ProgramError(f"fPage {fpage} is not written")
        level = self._level_py[fpage]
        rber = self._rber_unchecked(fpage)
        retries = self._read_retries_fast(rber, level)
        sense = (1.0 + retries) * self.latency.read_us
        cost = (level, self._data_opages_by_level[level], rber, retries,
                sense + self._opage_transfer_us,
                sense + self._fpage_transfer_us_by_level[level],
                (fpage // self._fpages_per_block) % self._channels)
        if self.read_disturb_rber == 0 and self.retention_rber_per_day == 0:
            self._read_costs[fpage] = cost
        return cost

    def _forget_read_costs(self, fpages) -> None:
        """Drop ``fpages``' costs: data going, or wear set by a test."""
        for fpage in fpages:
            self._read_costs.pop(fpage, None)

    def _audit_read_costs(self) -> None:
        """Assert every remembered cost equals a fresh derivation, for a
        page holding data on a chip allowed to remember (a test aid)."""
        static = not (self.read_disturb_rber or self.retention_rber_per_day)
        for fpage, cost in list(self._read_costs.items()):
            assert static and self._data[fpage] is not None, (
                f"read cost remembered for fPage {fpage}, which holds no "
                f"data or sits on a chip modelling disturb/retention")
            assert self._read_cost(fpage) == cost, (
                f"stale read cost remembered for fPage {fpage}")

    def read(self, fpage: int, slot: int) -> tuple[bytes, float]:
        """Read one oPage, as programmed: ``(data, expected_latency_us)``.

        Raises :class:`UncorrectableError` when the sampled bit-error count
        exceeds the page's ECC capability at its current tiredness level.
        Costed by :meth:`_read_cost`; faults and errors sampled per call.
        """
        (level, data_slots, rber, retries, latency, _,
         channel) = self._read_costs.get(fpage) or self._read_cost(fpage)
        if not 0 <= slot < data_slots:
            raise IndexError(
                f"slot {slot} out of range [0, {data_slots}) for L{level}")
        if self.read_disturb_rber:
            self._record_read_disturb(fpage)
        stats = self.stats
        stats.reads += 1
        stats.read_retries += retries
        stats.busy_us += latency
        self.channel_busy_us[channel] += latency
        rt = self._reqtrace
        if rt is not None and rt.active is not None:
            ctx = rt.active
            ctx.note_level(level)
            if retries > 0.0:
                ctx.bump("read_retries", retries)
                ctx.leaf("read_retry", retries * self.latency.read_us)
        if self._faults is not None:
            spec = self._faults.check(
                "chip.read", fpage=fpage, slot=slot,
                block=fpage // self._fpages_per_block)
            if spec is not None:
                if spec.fault == "uncorrectable":
                    raise self._uncorrectable(fpage, level, None)
                self._corrupt_slot(fpage, slot, spec.args)
        if self.inject_errors and rber > 0:
            flipped = int(self.rng.binomial(
                self._ecc_by_level[level].codeword_bits, min(rber, 1.0)))
            if flipped > self._ecc_t_by_level[level]:
                raise self._uncorrectable(fpage, level, flipped)
        return self._data[fpage][slot], latency

    def read_opages(self, fpage: int, slots: Sequence[int],
                    ) -> list[bytes | None]:
        """Batch-read several oPages of one written fPage.

        Semantically equivalent to calling :meth:`read` once per slot in
        order — the same statistics accrue, the same busy time is
        charged, and *exactly the same RNG draws happen in the same
        order*, so workloads are bit-identical whichever path the FTL
        takes (the perf harness asserts this). The difference is error
        handling (an uncorrectable slot yields ``None`` instead of
        raising, so one bad slot does not abort the batch) and cost: the
        per-read RBER/retry/latency derivation is hoisted out of the loop
        whenever it is loop-invariant (no read disturb or retention
        modelling), which is the common configuration for GC relocation —
        the hottest read path in the simulator.
        """
        if not 0 <= fpage < self._total_fpages:
            raise IndexError(
                f"fPage {fpage} out of range [0, {self._total_fpages})")
        if int(self._state[fpage]) != _STATE_WRITTEN:
            raise ProgramError(f"fPage {fpage} is not written")
        level = self._level_py[fpage]
        data_slots = self._data_opages_by_level[level]
        ecc = self._ecc_by_level[level]
        correctable = self._ecc_t_by_level[level]
        codeword_bits = ecc.codeword_bits
        data = self._data[fpage]
        block = fpage // self._fpages_per_block
        stats = self.stats
        inject = self.inject_errors
        injector = self._faults
        rng = self.rng
        chan = self.channel_busy_us
        ci = block % self._channels
        rt = self._reqtrace
        ctx = rt.active if rt is not None else None
        read_us = self.latency.read_us
        if ctx is not None:
            ctx.note_level(level)
        # RBER is loop-invariant unless reads disturb the block mid-batch
        # or a retention clock could advance between reads.
        static = (self.read_disturb_rber == 0
                  and self.retention_rber_per_day == 0)
        predrawn = None
        if static:
            rber = self._rber_unchecked(fpage)
            retries = self._read_retries_fast(rber, level)
            latency = ((1.0 + retries) * self.latency.read_us
                       + self._opage_transfer_us)
            p_flip = min(rber, 1.0)
            # One array draw replaces the per-slot binomial calls; array
            # draws consume the bitstream exactly like successive scalar
            # draws, so RNG state stays path-independent. Injected
            # uncorrectables skip their slot's draw, so the fast path
            # needs the injector absent; invalid slots would abort the
            # loop mid-batch, so bounds are pre-checked.
            if (inject and injector is None and rber > 0 and len(slots) > 1
                    and all(0 <= s < data_slots for s in slots)):
                predrawn = rng.binomial(codeword_bits, p_flip,
                                        size=len(slots)).tolist()
        out: list[bytes | None] = []
        for index, slot in enumerate(slots):
            if not 0 <= slot < data_slots:
                raise IndexError(
                    f"slot {slot} out of range [0, {data_slots}) "
                    f"for L{level}")
            if not static:
                rber = self._rber_unchecked(fpage)
                self._record_read_disturb(fpage)
                retries = self._read_retries_fast(rber, level)
                latency = ((1.0 + retries) * self.latency.read_us
                           + self._opage_transfer_us)
                p_flip = min(rber, 1.0)
            stats.reads += 1
            stats.read_retries += retries
            stats.busy_us += latency
            chan[ci] += latency
            if ctx is not None and retries > 0.0:
                ctx.bump("read_retries", retries)
                ctx.leaf("read_retry", retries * read_us)
            if injector is not None:
                # Same hit/context sequence as per-slot read() calls, so
                # fault schedules are path-independent too.
                spec = injector.check("chip.read", fpage=fpage, slot=slot,
                                      block=block)
                if spec is not None:
                    if spec.fault == "uncorrectable":
                        stats.uncorrectable_reads += 1
                        out.append(None)
                        continue
                    self._corrupt_slot(fpage, slot, spec.args)
                    data = self._data[fpage]
            if inject and rber > 0:
                flipped = (predrawn[index] if predrawn is not None
                           else int(rng.binomial(codeword_bits, p_flip)))
                if flipped > correctable:
                    stats.uncorrectable_reads += 1
                    out.append(None)
                    continue
            out.append(data[slot])
        return out

    def _corrupt_slot(self, fpage: int, slot: int, args) -> None:
        """Silently flip stored bits (injected corruption beyond the RBER
        model). The damage is persistent media corruption: ECC corrected
        nothing, so subsequent reads — by anyone — see the same bad bytes.
        ``args``: ``byte`` (offset, default 0), ``mask`` (XOR, default 0xFF).
        """
        data = list(self._data[fpage])
        payload = bytearray(data[slot].ljust(self._opage_bytes, b"\0"))
        index = int(args.get("byte", 0)) % len(payload)
        payload[index] ^= int(args.get("mask", 0xFF)) & 0xFF
        data[slot] = bytes(payload)
        self._data[fpage] = tuple(data)

    def _read_retries_fast(self, rber: float, level: int) -> float:
        """``LatencyModel.expected_read_retries`` with the per-level ECC
        capability looked up from the precomputed table."""
        capability = self._max_rber_by_level[level]
        if capability <= 0:
            return self.latency.max_read_retries
        ratio = min(rber / capability, 1.0)
        return (self.latency.max_read_retries
                * ratio ** self.latency.retry_exponent)

    def _uncorrectable(self, fpage: int, level: int,
                       flipped: int | None) -> UncorrectableError:
        """Count, and build, a failed read of ``fpage``: ``flipped``
        sampled bit errors, or an injected fault (``None``)."""
        self.stats.uncorrectable_reads += 1
        correctable = self._ecc_t_by_level[level]
        if flipped is None:
            return UncorrectableError(
                f"fPage {fpage} (L{level}): injected uncorrectable read",
                bit_errors=correctable + 1, correctable=correctable)
        return UncorrectableError(
            f"fPage {fpage} (L{level}, pec={int(self._pec[fpage])}): "
            f"{flipped} bit errors exceed t={correctable}",
            bit_errors=flipped, correctable=correctable)

    def read_fpage(self, fpage: int) -> tuple[tuple[bytes, ...], float]:
        """Read a whole fPage in one sense: all data oPages plus latency.

        Large host accesses use this path — one array sense amortised over
        every data oPage the page holds, which is exactly why RegenS pages
        (fewer data oPages per sense) degrade large accesses by
        ``P / (P - L)`` (paper §4.2). Costed by :meth:`_read_cost`.
        """
        (level, data_slots, rber, retries, _, latency,
         channel) = self._read_costs.get(fpage) or self._read_cost(fpage)
        if self.read_disturb_rber:
            self._record_read_disturb(fpage)
        stats = self.stats
        stats.reads += 1
        stats.read_retries += retries
        stats.busy_us += latency
        self.channel_busy_us[channel] += latency
        rt = self._reqtrace
        if rt is not None and rt.active is not None:
            ctx = rt.active
            ctx.note_level(level)
            if retries > 0.0:
                ctx.bump("read_retries", retries)
                ctx.leaf("read_retry", retries * self.latency.read_us)
        if self._faults is not None:
            # A whole-fPage sense is one hit (one array read on hardware).
            spec = self._faults.check(
                "chip.read", fpage=fpage,
                block=fpage // self._fpages_per_block)
            if spec is not None:
                if spec.fault == "uncorrectable":
                    raise self._uncorrectable(fpage, level, None)
                slot = int(spec.args.get("slot", 0)) % data_slots
                self._corrupt_slot(fpage, slot, spec.args)
        if self.inject_errors and rber > 0:
            flipped = int(self.rng.binomial(
                self._ecc_by_level[level].codeword_bits, min(rber, 1.0)))
            if flipped > self._ecc_t_by_level[level]:
                raise self._uncorrectable(fpage, level, flipped)
        return self._data[fpage][:data_slots], latency

    def erase(self, block: int) -> float:
        """Erase ``block``: all non-retired fPages become FREE, PEC += 1.

        Returns the expected latency in microseconds.
        """
        self.geometry.check_block(block)
        if int(self._block_retired_fpages[block]) >= self._fpages_per_block:
            raise EraseError(f"block {block} is fully retired")
        if self._faults is not None:
            spec = self._faults.check("chip.erase", block=block)
            if spec is not None:
                # Failure before any mutation: PEC does not advance and
                # written pages keep their data (real erase failures are
                # detected by status polling; firmware retires the block).
                raise EraseFaultError(
                    f"injected erase failure at block {block}")
        start = block * self._fpages_per_block
        stop = start + self._fpages_per_block
        self._pec[start:stop] += 1
        self._reads_since_erase[start:stop] = 0
        seg = self._state[start:stop]
        seg[seg != _STATE_RETIRED] = _STATE_FREE
        nothing = [None] * self._fpages_per_block
        self._data[start:stop] = self._oob_seq[start:stop] = nothing
        spf = self._slots_per_fpage
        self._oob_lbas[start * spf:stop * spf] = nothing * spf
        if self._read_costs:    # never, on a device that is only written
            self._forget_read_costs(range(start, stop))
        self.stats.erases += 1
        wear = self._endurance
        if wear is not None:
            # After the mutation, so an injected erase failure (raised
            # above, pre-mutation) advances neither PEC nor the ledger:
            # per-block ledger erases equal pec_array() deltas exactly.
            wear.record_erase(block)
        latency = self.latency.erase_latency_us()
        self._charge(block, latency)
        return latency

    def set_level(self, fpage: int, level: int) -> None:
        """Change a FREE fPage's tiredness level (RegenS promotion).

        Levels only move up: wear does not heal. Promoting to the dead
        level retires the page.
        """
        self.geometry.check_fpage(fpage)
        self.policy.check_level(level)
        if int(self._state[fpage]) == _STATE_WRITTEN:
            raise ProgramError(
                f"fPage {fpage} is written; relocate its data before "
                f"changing levels")
        current = self._level_py[fpage]
        if level < current:
            raise ConfigError(
                f"fPage {fpage}: cannot lower level from "
                f"{current} to {level}")
        if int(self._state[fpage]) != _STATE_RETIRED:
            block = fpage // self._fpages_per_block
            self._block_usable_slots[block] -= level - current
            if level == self._dead_level:
                self._block_retired_fpages[block] += 1
        self._level[fpage] = level
        self._level_py[fpage] = level
        if level == self._dead_level:
            self._state[fpage] = _STATE_RETIRED

    def retire(self, fpage: int) -> None:
        """Permanently remove ``fpage`` from service (any prior state)."""
        self.geometry.check_fpage(fpage)
        if int(self._state[fpage]) != _STATE_RETIRED:
            block = fpage // self._fpages_per_block
            self._block_usable_slots[block] -= (
                self._dead_level - self._level_py[fpage])
            self._block_retired_fpages[block] += 1
        self._state[fpage] = _STATE_RETIRED
        self._data[fpage] = self._oob_seq[fpage] = None
        spf = self._slots_per_fpage
        self._oob_lbas[fpage * spf:(fpage + 1) * spf] = [None] * spf
        if self._read_costs:
            self._forget_read_costs((fpage,))

    def read_oob(self, fpage: int) -> tuple[tuple[int | None, ...], int] | None:
        """Mount-time metadata for a written page, or None.

        OOB reads are modelled as always succeeding: the few metadata
        bytes carry much stronger relative protection than the data area
        (as in real firmware).
        """
        self.geometry.check_fpage(fpage)
        sequence = self._oob_seq[fpage]
        if sequence is None:
            return None
        base = fpage * self._slots_per_fpage
        slots = self._data_opages_by_level[self._level_py[fpage]]
        return tuple(self._oob_lbas[base:base + slots]), sequence

    def _audit_store(self) -> None:
        """Assert payloads and OOB sit only on WRITTEN fPages, and slot
        LBAs only in a written page's data slots (a test aid)."""
        n, spf = self._total_fpages, self._slots_per_fpage
        assert (len(self._data), len(self._oob_seq), len(self._oob_lbas)
                ) == (n, n, n * spf), "chip store columns resized"
        written = self._state == _STATE_WRITTEN
        held = np.array([d is not None for d in self._data], dtype=bool)
        assert (held == written).all(), (
            "a payload is held by an fPage not WRITTEN, or missing")
        has_oob = np.array([s is not None for s in self._oob_seq],
                           dtype=bool)
        assert not (has_oob & ~written).any(), (
            "an OOB sequence is set on an fPage not WRITTEN")
        data_slots = np.asarray(self._data_opages_by_level)[self._level]
        limit = np.where(written & has_oob, data_slots, 0)
        allowed = (np.arange(spf) < limit[:, None]).ravel()
        lbas = np.array([x is not None for x in self._oob_lbas], dtype=bool)
        assert not (lbas & ~allowed).any(), (
            "an OOB slot LBA lies outside a written page's data slots")

    def channel_of_block(self, block: int) -> int:
        """Channel a block's operations execute on (striped layout)."""
        self.geometry.check_block(block)
        return block % self.geometry.channels

    def makespan_us(self) -> float:
        """Wall-clock device time with channel parallelism.

        Operations on different channels overlap; the device is done when
        its busiest channel is. With one channel this equals
        ``stats.busy_us``.
        """
        return float(max(self.channel_busy_us))

    def _charge(self, block: int, latency: float) -> None:
        self.stats.busy_us += latency
        self.channel_busy_us[block % self._channels] += latency

    def _record_read_disturb(self, fpage: int) -> None:
        """Reading a page disturbs its whole block's cells (§2)."""
        if self.read_disturb_rber == 0:
            return
        start = (fpage // self._fpages_per_block) * self._fpages_per_block
        self._reads_since_erase[start:start + self._fpages_per_block] += 1

    # -- summaries -----------------------------------------------------------

    def wear_summary(self) -> dict[str, float]:
        """Aggregate wear view used by device SMART reporting."""
        return {
            "mean_pec": float(self._pec.mean()),
            "max_pec": int(self._pec.max()),
            "retired_fpages": self.retired_count(),
            "retired_fraction": self.retired_count() / self.geometry.total_fpages,
            "mean_level": float(self._level.mean()),
        }


_STATE_FREE = 0
_STATE_WRITTEN = 1
_STATE_RETIRED = 2

_STATE_TO_ENUM = {
    _STATE_FREE: PageState.FREE,
    _STATE_WRITTEN: PageState.WRITTEN,
    _STATE_RETIRED: PageState.RETIRED,
}

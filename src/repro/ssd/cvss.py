"""CVSS-like capacity-variant SSD (the paper's closest prior work, §4).

CVSS (Jiao et al., FAST '24) extends device lifetime by *shrinking*: instead
of bricking at a bad-block threshold, the device retires worn blocks and
reduces its advertised capacity, relying on free space in the host file
system to absorb the loss. The paper criticises two aspects that our model
reproduces faithfully:

* retirement is **block-granular**, keyed on the block's *average* RBER — so
  strong pages inside a weak block are discarded with remaining life unused;
* the lifetime gain **hinges on host free space** — once live data no longer
  fits in the shrunken device, it is done (the paper quotes CVSS's ~20 %
  lifetime gain at 50 % space utilisation).

Capacity changes are announced through ``shrink_listener`` so harnesses can
keep the host's utilisation within the shrinking budget, mirroring how CVSS
steals file-system free space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigError, DeviceBrickedError, OutOfSpaceError
from repro.flash.chip import FlashChip, PageState
from repro.flash.geometry import FlashGeometry
from repro.ssd.ftl import FTLConfig, PageMappedFTL


@dataclass(frozen=True)
class CVSSConfig:
    """Capacity-variant device configuration.

    Attributes:
        ftl: FTL tunables (fixed code rate: ``max_level`` must be 0).
        capacity_reserve_blocks: shrink headroom — the advertised capacity
            always stays this many blocks below what the surviving flash
            could hold, so GC keeps functioning near the edge.
        min_capacity_fraction: the device reports end-of-life once it has
            shrunk below this fraction of its initial logical size.
        retire_rule: ``"first-page"`` retires a block as soon as any of its
            pages outgrows the ECC (reliability-preserving); ``"avg-rber"``
            is the literal block-average trigger, which knowingly keeps
            weak pages in service and pays for it with uncorrectable reads.
    """

    ftl: FTLConfig = field(default_factory=FTLConfig)
    capacity_reserve_blocks: int = 4
    min_capacity_fraction: float = 0.1
    retire_rule: str = "first-page"

    def __post_init__(self) -> None:
        if self.retire_rule not in ("first-page", "avg-rber"):
            raise ConfigError(
                f"retire_rule must be 'first-page' or 'avg-rber', "
                f"got {self.retire_rule!r}")
        if self.ftl.max_level != 0:
            raise ConfigError(
                "CVSS keeps the default code rate; ftl.max_level must be 0")
        if self.capacity_reserve_blocks < 1:
            raise ConfigError(
                f"capacity_reserve_blocks must be >= 1, "
                f"got {self.capacity_reserve_blocks!r}")
        if not 0.0 <= self.min_capacity_fraction < 1.0:
            raise ConfigError(
                f"min_capacity_fraction must be in [0, 1), "
                f"got {self.min_capacity_fraction!r}")


class CVSSDevice(PageMappedFTL):
    """Shrinking SSD with block-granular, average-RBER retirement.

    ``capacity_lbas`` is the currently advertised logical size; it only
    moves down. Writes beyond it are rejected; the harness (standing in for
    the host file system) must keep its working set within the advertised
    size, exactly like CVSS consumes file-system free space.
    """

    device_kind = "cvss"

    def __init__(self, chip: FlashChip, config: CVSSConfig | None = None,
                 n_lbas: int | None = None) -> None:
        self.device_config = config or CVSSConfig()
        if n_lbas is None:
            n_lbas = int(chip.geometry.total_opage_slots
                         * (1.0 - self.device_config.ftl.overprovision))
        super().__init__(chip, n_lbas, self.device_config.ftl)
        self.capacity_lbas = n_lbas
        self._initial_lbas = n_lbas
        self._avg_rber_limit = chip.policy.max_rber(0)
        self._failed = False
        self.shrink_listener: Callable[[int], None] | None = None

    @classmethod
    def create(cls, geometry: FlashGeometry | None = None,
               config: CVSSConfig | None = None,
               seed: int | np.random.Generator | None = None,
               **chip_kwargs) -> "CVSSDevice":
        chip = FlashChip(geometry, seed=seed, **chip_kwargs)
        return cls(chip, config)

    # -- liveness ---------------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        return not self._failed

    @property
    def capacity_fraction(self) -> float:
        """Advertised capacity relative to the initial size."""
        return self.capacity_lbas / self._initial_lbas

    # -- host interface -----------------------------------------------------------

    def _admit_write(self, lba: int) -> int:
        self._check_alive()
        if lba >= self.capacity_lbas:
            raise OutOfSpaceError(
                f"LBA {lba} beyond shrunk capacity {self.capacity_lbas}")
        return self.capacity_lbas

    def _exhaust(self) -> None:
        self._failed = True

    def read(self, lba: int) -> bytes:
        self._check_alive()
        return super().read(lba)

    def read_range(self, lba: int, count: int) -> list[bytes]:
        self._check_alive()
        return super().read_range(lba, count)

    def _check_alive(self) -> None:
        if self._failed:
            raise DeviceBrickedError(
                f"CVSS device exhausted at "
                f"{self.capacity_fraction:.1%} of original capacity")

    # -- retirement policy ----------------------------------------------------------

    def _handle_worn_page(self, fpage: int, required_level: int) -> bool:
        """Block-granular retirement under the configured rule.

        ``"first-page"`` condemns the block now (its weakest page can no
        longer be protected). ``"avg-rber"`` waits for the block *average*
        to cross the limit — the literal reading the paper criticises for
        discarding strong pages, which also knowingly leaves weak pages in
        service until then (reads on them may go uncorrectable).
        """
        block = self.geometry.block_of_fpage(fpage)
        if self.device_config.retire_rule == "first-page":
            self._retire_block(block)
            return False
        pages = np.asarray(self.geometry.fpage_range_of_block(block))
        states = self.chip.state_array()[pages]
        live = pages[states != 2]
        if live.size == 0:
            return False
        rbers = np.array([self.chip.rber_of(int(p)) for p in live])
        if float(rbers.mean()) <= self._avg_rber_limit:
            return True  # block average still fine; keep using the page
        self._retire_block(block)
        return False

    def _retire_block(self, block: int) -> None:
        for fpage in self.geometry.fpage_range_of_block(block):
            if self.chip.state(fpage) is not PageState.WRITTEN:
                self.chip.retire(fpage)
        self.stats.retired_blocks += 1
        self._free_blocks.discard(block)
        self._dead_blocks.add(block)
        self._recompute_capacity()

    def _block_usable(self, block: int) -> bool:
        return block not in self._dead_blocks

    def _recompute_capacity(self) -> None:
        """Shrink the advertised size to what surviving flash can hold."""
        slots_per_block = (self.geometry.fpages_per_block
                           * self.geometry.opages_per_fpage)
        reserve = (self.device_config.capacity_reserve_blocks
                   * slots_per_block)
        op = self.config.overprovision
        affordable = int((self.usable_opage_slots() - reserve) * (1.0 - op))
        new_capacity = min(self.capacity_lbas, max(affordable, 0))
        if new_capacity == self.capacity_lbas:
            return
        self.capacity_lbas = new_capacity
        if self.shrink_listener is not None:
            self.shrink_listener(new_capacity)
        floor = self.device_config.min_capacity_fraction * self._initial_lbas
        if new_capacity <= floor or new_capacity < self.live_lbas():
            # Either shrunk below usefulness, or live data no longer fits —
            # CVSS's free-space dependence has run out.
            self._failed = True

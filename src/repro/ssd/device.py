"""The baseline SSD: a monolithic device with commodity failure semantics.

This is the device the paper's baseline distributed system deploys (§2):

* a fixed code rate — every page runs at tiredness level L0;
* block-granular retirement — when any page in a block outgrows the default
  ECC, firmware maps out the *whole block*;
* a brick threshold — once grown-bad blocks exceed ~2.5 % of the device the
  drive either bricks or turns read-only, regardless of how much life the
  remaining flash still has.

That last rule is the "artificial limit" Salamander removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    ConfigError,
    DeviceBrickedError,
    DeviceReadOnlyError,
)
from repro.flash.chip import FlashChip, PageState
from repro.flash.geometry import FlashGeometry
from repro.flash.rber import RBERModel
from repro.ssd.badblocks import DEFAULT_BRICK_THRESHOLD, BadBlockLedger
from repro.ssd.ftl import FTLConfig, PageMappedFTL


@dataclass(frozen=True)
class SSDConfig:
    """Baseline-device configuration.

    Attributes:
        ftl: FTL tunables. ``max_level`` must stay 0 for a baseline device
            (fixed code rate); a different value is a configuration error.
        brick_threshold: bad-block fraction at which the device fails.
        read_only_at_eol: fail into read-only mode instead of bricking.
    """

    ftl: FTLConfig = field(default_factory=FTLConfig)
    brick_threshold: float = DEFAULT_BRICK_THRESHOLD
    read_only_at_eol: bool = False

    def __post_init__(self) -> None:
        if self.ftl.max_level != 0:
            raise ConfigError(
                "baseline SSDs have a fixed code rate; ftl.max_level must be 0")


class BaselineSSD(PageMappedFTL):
    """Monolithic SSD with block-granular retirement and a brick threshold.

    Args:
        chip: flash chip to manage.
        config: device configuration; ``None`` means defaults.
        n_lbas: logical size override; default derives from over-provisioning.
    """

    device_kind = "baseline"

    def __init__(self, chip: FlashChip, config: SSDConfig | None = None,
                 n_lbas: int | None = None) -> None:
        self.device_config = config or SSDConfig()
        if n_lbas is None:
            n_lbas = int(chip.geometry.total_opage_slots
                         * (1.0 - self.device_config.ftl.overprovision))
        super().__init__(chip, n_lbas, self.device_config.ftl)
        self.ledger = BadBlockLedger(
            chip.geometry.blocks, self.device_config.brick_threshold)
        self._failed = False
        self._read_only = False

    @classmethod
    def create(cls, geometry: FlashGeometry | None = None,
               config: SSDConfig | None = None,
               seed: int | np.random.Generator | None = None,
               **chip_kwargs) -> "BaselineSSD":
        """Convenience constructor building the chip too."""
        chip = FlashChip(geometry, seed=seed, **chip_kwargs)
        return cls(chip, config)

    @classmethod
    def remount(cls, chip: FlashChip, config: SSDConfig | None = None,
                n_lbas: int | None = None,
                buffer_entries: list[tuple[int, bytes]] | None = None,
                ) -> "BaselineSSD":
        """Mount a device over flash that already holds data (power loss).

        Rebuilds the bad-block ledger from retired pages (the bad-block
        table is flash-resident in real firmware), then replays the OOB
        write log to reconstruct the mapping; see
        :meth:`PageMappedFTL.remount` for buffer/trim semantics.
        """
        device = cls(chip, config, n_lbas)
        device._attributed("remount", device._mount, buffer_entries)
        if device.ledger.exceeded:
            device._failed = True
        return device

    def _rebuild_from_flash(self) -> None:
        """The bad-block ledger first, from retired pages, then the
        mapping replay."""
        chip = self.chip
        for block in range(chip.geometry.blocks):
            pages = np.asarray(chip.geometry.fpage_range_of_block(block))
            if (chip.state_array()[pages] == 2).any():
                self.ledger.mark_bad(block)
                self._free_blocks.discard(block)
        super()._rebuild_from_flash()

    # -- liveness ------------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """Whether the device still accepts writes."""
        return not self._failed and not self._read_only

    @property
    def is_failed(self) -> bool:
        return self._failed

    @property
    def is_read_only(self) -> bool:
        return self._read_only

    def _check_writable(self) -> None:
        if self._failed:
            raise DeviceBrickedError(
                f"device bricked at {self.ledger.bad_fraction:.1%} bad blocks")
        if self._read_only:
            raise DeviceReadOnlyError(
                f"device read-only at {self.ledger.bad_fraction:.1%} bad blocks")

    def _check_readable(self) -> None:
        if self._failed:
            raise DeviceBrickedError(
                f"device bricked at {self.ledger.bad_fraction:.1%} bad blocks")

    # -- host interface (liveness-gated) ---------------------------------------

    def _admit_write(self, lba: int) -> int:
        self._check_writable()
        return self.n_lbas

    def _exhaust(self) -> None:
        self._failed = True

    def read(self, lba: int) -> bytes:
        self._check_readable()
        return super().read(lba)

    def read_range(self, lba: int, count: int) -> list[bytes]:
        self._check_readable()
        return super().read_range(lba, count)

    def trim(self, lba: int) -> None:
        self._check_writable()
        super().trim(lba)

    def trim_range(self, lba: int, count: int) -> None:
        self._check_writable()
        super().trim_range(lba, count)

    def flush(self) -> None:
        self._check_writable()
        super().flush()

    # -- failure policy ----------------------------------------------------------

    def _handle_worn_page(self, fpage: int, required_level: int) -> bool:
        """Baseline firmware: one worn page condemns its whole block."""
        block = self.geometry.block_of_fpage(fpage)
        self.chip.retire(fpage)
        self.stats.retired_fpages += 1
        if not self.ledger.is_bad(block):
            self.ledger.mark_bad(block)
            self.stats.retired_blocks += 1
            self._free_blocks.discard(block)
        return False

    def _block_usable(self, block: int) -> bool:
        return not self.ledger.is_bad(block)

    def _block_condemned(self, block: int) -> None:
        """Erase failures land on the bad-block ledger like worn blocks."""
        if not self.ledger.is_bad(block):
            self.ledger.mark_bad(block)
            self.stats.retired_blocks += 1
            self._free_blocks.discard(block)

    def _after_wear_event(self, block: int, worn_fpages: list[int]) -> None:
        """End-of-life rule: brick as soon as the ledger crosses threshold.

        Raises out of the in-flight operation — commodity firmware fails the
        request that discovers the condition rather than limping on.
        """
        if self.ledger.exceeded and self.is_alive:
            if self.device_config.read_only_at_eol:
                self._read_only = True
                raise DeviceReadOnlyError(
                    f"device read-only at {self.ledger.bad_fraction:.1%} "
                    f"bad blocks")
            self._failed = True
            raise DeviceBrickedError(
                f"device bricked at {self.ledger.bad_fraction:.1%} bad blocks")

    # -- reporting -----------------------------------------------------------------

    def smart(self) -> dict[str, float]:
        """SMART-style health report."""
        report = dict(self.chip.wear_summary())
        report.update(self.stats.snapshot())
        report["bad_blocks"] = self.ledger.bad_count
        report["bad_block_fraction"] = self.ledger.bad_fraction
        report["alive"] = float(self.is_alive)
        return report

"""§4.3: recovery-traffic accounting.

The paper's argument: ShrinkS moves *the same total LBAs* through recovery
as a baseline fleet — a baseline death is "logically equivalent to retiring
all flash blocks simultaneously" — just spread over time and in mDisk-sized
pieces. RegenS is worse in total: regenerated mDisks add capacity that will
fail again ("increase the total data that will fail, and are shorter
lived").

Two views are provided:

* the analytic per-page bound :func:`total_failed_capacity_fraction` —
  e.g. at ``P = 4`` and ``regen_max_level = 1`` a page fails once with 4/4
  of its capacity and once more with 3/4, so RegenS re-replicates up to
  1.75x a ShrinkS fleet's bytes;
* :class:`RecoveryModel`, which converts fleet-simulation capacity-loss
  series (or difs recovery stats) into network traffic, where recovering a
  byte costs one read from a survivor plus one write to the new replica.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.sim.fleet import FleetResult


def total_failed_capacity_fraction(opages_per_fpage: int = 4,
                                   regen_max_level: int = 0) -> float:
    """Total capacity that fails over a device's life, as a fraction of C0.

    Every page eventually loses its full L0 capacity (fraction 1 in total);
    each regeneration level ``l`` re-adds ``(P - l) / P`` of the page that
    later fails again.
    """
    if opages_per_fpage <= 0:
        raise ConfigError(
            f"opages_per_fpage must be positive, got {opages_per_fpage!r}")
    if not 0 <= regen_max_level < opages_per_fpage:
        raise ConfigError(
            f"regen_max_level must be in [0, {opages_per_fpage}), "
            f"got {regen_max_level!r}")
    total = 1.0
    for level in range(1, regen_max_level + 1):
        total += (opages_per_fpage - level) / opages_per_fpage
    return total


@dataclass(frozen=True)
class RecoveryModel:
    """Converts lost-capacity volumes into diFS recovery traffic.

    Attributes:
        utilization: fraction of lost capacity that held live data (only
            live chunks are re-replicated).
        read_write_cost: network bytes moved per recovered byte — 2.0 for
            read-one-write-one n-way replication.
    """

    utilization: float = 0.5
    read_write_cost: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.utilization <= 1.0:
            raise ConfigError(
                f"utilization must be in (0, 1], got {self.utilization!r}")
        if self.read_write_cost <= 0:
            raise ConfigError(
                f"read_write_cost must be positive, "
                f"got {self.read_write_cost!r}")

    def traffic_series(self, result: FleetResult) -> np.ndarray:
        """Per-step recovery traffic for a fleet run."""
        return (result.capacity_lost_bytes
                * self.utilization * self.read_write_cost)

    def peak_step_traffic(self, result: FleetResult) -> float:
        """Worst single-step recovery burst — where minidisks shine.

        A baseline fleet loses whole devices at once; Salamander loses
        mSize-sized slivers, so its peak is orders of magnitude lower even
        when totals match.
        """
        series = self.traffic_series(result)
        return float(series.max()) if series.size else 0.0

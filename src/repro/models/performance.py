"""Fig. 3c/3d: RegenS performance degradation for large accesses (§4.2).

An fPage at tiredness level ``L`` holds ``P - L`` data oPages instead of
``P``, so a large (fPage-sized) logical access touches ``P / (P - L)``
physical pages: sequential throughput scales by ``(P - L) / P`` and large
random-access latency by ``P / (P - L)`` — 25 % / 33 % at L1 for P = 4.
Small (4 KiB) random accesses still touch one fPage and are unaffected.

:class:`PerformanceModel` extends the single-level factors to a device with
a *mix* of levels (the x-axis of Fig. 3c/3d as a device ages), assuming
accesses spread uniformly over capacity. The functional device reproduces
the same numbers from actual per-oPage latencies — the Fig. 3c/3d benches
run both and compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.flash.latency import LatencyModel
from repro.flash.tiredness import TirednessPolicy


def throughput_factor(level: int, opages_per_fpage: int = 4) -> float:
    """Sequential-throughput multiplier at ``level``: ``(P - L) / P``."""
    _check(level, opages_per_fpage)
    return (opages_per_fpage - level) / opages_per_fpage


def latency_factor(level: int, opages_per_fpage: int = 4) -> float:
    """Large-random-access latency multiplier at ``level``: ``P / (P - L)``."""
    _check(level, opages_per_fpage)
    return opages_per_fpage / (opages_per_fpage - level)


def _check(level: int, opages_per_fpage: int) -> None:
    if opages_per_fpage <= 0:
        raise ConfigError(
            f"opages_per_fpage must be positive, got {opages_per_fpage!r}")
    if not 0 <= level < opages_per_fpage:
        raise ConfigError(
            f"level must be in [0, {opages_per_fpage}), got {level!r}")


@dataclass(frozen=True)
class PerformanceModel:
    """Expected large-access performance for a device with mixed levels.

    Attributes:
        policy: tiredness policy (page layout).
        latency: per-operation latency model (for absolute numbers).
    """

    policy: TirednessPolicy = field(default_factory=TirednessPolicy)
    latency: LatencyModel = field(default_factory=LatencyModel)

    def _validate_mix(self, level_mix: dict[int, float]) -> None:
        total = sum(level_mix.values())
        if not level_mix or abs(total - 1.0) > 1e-6:
            raise ConfigError(
                f"level_mix fractions must sum to 1, got {total!r}")
        for level in level_mix:
            _check(level, self.policy.dead_level)

    def sequential_throughput_factor(self, level_mix: dict[int, float]) -> float:
        """Throughput multiplier for a capacity-weighted level mix.

        ``level_mix`` maps level -> fraction of *capacity* at that level.
        A sequential scan reads each byte once, so scan time is the sum of
        per-level times: ``sum(frac / tp_factor)`` inverted.
        """
        self._validate_mix(level_mix)
        time = sum(frac / throughput_factor(level, self.policy.dead_level)
                   for level, frac in level_mix.items())
        return 1.0 / time

    def large_access_latency_factor(self, level_mix: dict[int, float]) -> float:
        """Expected latency multiplier for fPage-sized random reads."""
        self._validate_mix(level_mix)
        return sum(frac * latency_factor(level, self.policy.dead_level)
                   for level, frac in level_mix.items())

    def small_read_latency_us(self, level: int, rber: float = 0.0) -> float:
        """Absolute expected latency of one 4 KiB read (level-independent
        page count: always a single fPage touch)."""
        _check(level, self.policy.dead_level)
        ecc = self.policy.ecc_for_level(level)
        return self.latency.read_latency_us(
            rber, ecc, self.policy.geometry.opage_bytes)

    def sequential_throughput_mbps(self, level_mix: dict[int, float],
                                   channels: int = 1,
                                   rber: float = 0.0) -> float:
        """Absolute sequential-read throughput for a level mix, in MB/s.

        A scan senses every fPage once (sense + data transfer); fPages at
        higher levels move fewer bytes per sense. Independent channels
        overlap, so device throughput scales linearly with ``channels``
        until some other bottleneck (not modelled) intervenes.
        """
        if channels <= 0:
            raise ConfigError(f"channels must be positive, got {channels!r}")
        self._validate_mix(level_mix)
        geometry = self.policy.geometry
        total_bytes = 0.0
        total_us = 0.0
        for level, fraction in level_mix.items():
            ecc = self.policy.ecc_for_level(level)
            data_bytes = self.policy.data_opages(level) * geometry.opage_bytes
            total_bytes += fraction * data_bytes
            total_us += fraction * self.latency.read_latency_us(
                rber, ecc, data_bytes)
        return channels * total_bytes / total_us  # bytes/us == MB/s

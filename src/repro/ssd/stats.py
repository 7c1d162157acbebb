"""Device-level counters.

These are the numbers a datacenter operator reads off SMART: host traffic,
internal write amplification, wear, and reliability events. Both the
baseline and Salamander devices expose one :class:`SSDStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


class LatencyReservoir:
    """Bounded, deterministic latency sample store with percentiles.

    Keeps every ``stride``-th sample; when the buffer fills, the stride
    doubles and the buffer is decimated — a deterministic alternative to
    reservoir sampling that preserves the distribution's shape for
    percentile queries while bounding memory.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 2:
            raise ConfigError(f"capacity must be >= 2, got {capacity!r}")
        self.capacity = capacity
        self._samples: list[float] = []
        self._stride = 1
        self._cursor = 0
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def add(self, value: float) -> None:
        if value < 0:
            raise ConfigError(f"latency must be non-negative, got {value!r}")
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        self._cursor += 1
        if self._cursor >= self._stride:
            self._cursor = 0
            self._samples.append(value)
            if len(self._samples) >= self.capacity:
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (q in [0, 100]) of observed values.

        ``np.percentile``'s default ``linear`` rule, bit for bit, worked
        over the sorted samples in Python floats: ``np.percentile``
        itself imports ``numpy.ma`` on its first call (~16 ms), which
        would land inside whatever is being timed.
        """
        if not 0 <= q <= 100:
            raise ConfigError(f"q must be in [0, 100], got {q!r}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        last = len(ordered) - 1
        index = last * (q / 100)
        if index >= last:
            # numpy clamps both neighbours to the top sample, and its
            # weight becomes the index less the clamped position, -1.
            low = high = ordered[last]
            gamma = index + 1
        else:
            below = int(index)
            low, high = ordered[below], ordered[below + 1]
            gamma = index % 1.0
        diff = high - low
        # numpy's lerp works from the nearer neighbour.
        if gamma >= 0.5:
            return float(high - diff * (1 - gamma))
        return float(low + diff * gamma)


@dataclass
class SSDStats:
    """Operation and reliability counters for one device.

    All page counts are in oPages (the 4 KiB host granularity) so that
    write amplification is a straight ratio.
    """

    host_reads: int = 0
    host_writes: int = 0
    flash_writes: int = 0
    gc_relocations: int = 0
    wear_relocations: int = 0
    erases: int = 0
    trims: int = 0
    uncorrectable_reads: int = 0
    lost_opages: int = 0
    retired_fpages: int = 0
    retired_blocks: int = 0
    decommissioned_minidisks: int = 0
    regenerated_minidisks: int = 0
    read_latency: LatencyReservoir = field(default_factory=LatencyReservoir)
    write_latency: LatencyReservoir = field(default_factory=LatencyReservoir)

    @property
    def write_amplification(self) -> float:
        """Flash oPage writes per host oPage write (1.0 is ideal)."""
        if self.host_writes == 0:
            return 0.0
        return self.flash_writes / self.host_writes

    def snapshot(self) -> dict[str, float]:
        """Plain-dict view for logging and tables."""
        return {
            "host_reads": self.host_reads,
            "host_writes": self.host_writes,
            "flash_writes": self.flash_writes,
            "gc_relocations": self.gc_relocations,
            "wear_relocations": self.wear_relocations,
            "erases": self.erases,
            "trims": self.trims,
            "uncorrectable_reads": self.uncorrectable_reads,
            "lost_opages": self.lost_opages,
            "retired_fpages": self.retired_fpages,
            "retired_blocks": self.retired_blocks,
            "decommissioned_minidisks": self.decommissioned_minidisks,
            "regenerated_minidisks": self.regenerated_minidisks,
            "write_amplification": self.write_amplification,
            "read_latency_mean_us": self.read_latency.mean,
            "read_latency_p99_us": self.read_latency.percentile(99),
            "write_latency_mean_us": self.write_latency.mean,
            "write_latency_p99_us": self.write_latency.percentile(99),
        }

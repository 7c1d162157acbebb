"""Single-device lifetime experiments (the §4 lifetime tournament).

Drives a functional device with a fixed-utilisation random-overwrite
workload until it dies (or shrinks below a usefulness floor), recording how
much host data it absorbed and how its capacity declined. All four device
types are driven through one harness so their lifetimes are directly
comparable — the quantity behind the paper's "up to 1.5x" claim and behind
the upgrade rates fed into the carbon/TCO models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import context
from repro.errors import ReproError
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.rng import make_rng
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.ssd.cvss import CVSSConfig, CVSSDevice
from repro.ssd.device import BaselineSSD, SSDConfig
from repro.ssd.ftl import FTLConfig
from repro.workloads.generators import stamp_payload


@dataclass
class LifetimeResult:
    """Outcome of one write-until-death run.

    Attributes:
        host_writes: oPage writes the device absorbed before the end.
        death_cause: exception class name, or ``"capacity-floor"`` when the
            device shrank below ``capacity_floor_fraction``.
        initial_capacity_lbas / final_capacity_lbas: advertised size.
        capacity_curve: ``(host_writes, capacity_lbas)`` samples.
        mean_pec_at_death: wear actually extracted from the flash.
        stats: the device's final counter snapshot.
    """

    host_writes: int
    death_cause: str
    initial_capacity_lbas: int
    final_capacity_lbas: int
    capacity_curve: list[tuple[int, int]] = field(default_factory=list)
    mean_pec_at_death: float = 0.0
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def capacity_fraction(self) -> float:
        if self.initial_capacity_lbas == 0:
            return 0.0
        return self.final_capacity_lbas / self.initial_capacity_lbas


def tournament_devices(*, blocks: int = 32, pec_limit: float = 30,
                       seed: int = 1) -> dict[str, object]:
    """The four contenders of the §4 lifetime tournament, fresh.

    Baseline, CVSS, ShrinkS and RegenS over chips of one geometry, one
    calibrated wear model and — same ``seed`` — one per-page variation
    draw, so a difference in lifetime is a difference in policy.
    ``pec_limit`` is the L0 endurance the wear model is calibrated to
    (tens of cycles: accelerated wear; real TLC is ~3000).
    """
    geometry = FlashGeometry(blocks=blocks, fpages_per_block=8)
    policy = TirednessPolicy(geometry=geometry)
    model = calibrate_power_law(policy, pec_limit_l0=pec_limit)
    ftl = FTLConfig(overprovision=0.25, buffer_opages=8)

    def chip() -> FlashChip:
        return FlashChip(geometry, rber_model=model, policy=policy,
                         seed=seed, variation_sigma=0.3)

    salamander = dict(msize_lbas=32, headroom_fraction=0.25, ftl=ftl)
    return {
        "baseline": BaselineSSD(chip(), SSDConfig(ftl=ftl)),
        "cvss": CVSSDevice(chip(), CVSSConfig(ftl=ftl)),
        "shrinks": SalamanderSSD(chip(), SalamanderConfig(
            mode="shrink", **salamander)),
        "regens": SalamanderSSD(chip(), SalamanderConfig(
            mode="regen", **salamander)),
    }


def run_write_lifetime(
    device,
    *,
    utilization: float = 0.75,
    capacity_floor_fraction: float = 0.2,
    max_writes: int = 5_000_000,
    sample_every: int = 1000,
    seed: int | np.random.Generator | None = None,
) -> LifetimeResult:
    """Write random data at fixed utilisation until the device gives up.

    Args:
        device: a baseline, CVSS, or Salamander device (fresh).
        utilization: fraction of the (current) capacity holding live data.
            CVSS's lifetime famously depends on this (paper: ~20 % gain at
            50 % utilisation); the tournament sweeps it.
        capacity_floor_fraction: stop when advertised capacity falls below
            this fraction of the initial size (the operator replaces the
            drive) — also prevents degenerate buffer-only endgames.
        max_writes: hard safety stop.
        sample_every: capacity-curve sampling period, in host writes.
    """
    rng = make_rng(seed)
    integers = rng.integers
    write = device.write
    # The device flavour is resolved once: Salamander is addressed by
    # (minidisk, LBA) and picks the minidisk first — two draws a write —
    # everything else by a flat LBA within ``capacity_lbas`` — one draw.
    # The draw order is part of the harness contract
    # (tests/sim/test_lifetime_golden.py pins the generator state).
    by_minidisk = isinstance(device, SalamanderSSD)
    # Bound once; the time axis for lifetime trajectories is *host
    # writes* (the quantity the paper's lifetime claims are over), not
    # simulated seconds — documented in docs/OBSERVABILITY.md.
    sampler = context.current().timeseries
    device_labels = {"device": getattr(device, "obs_name", "device")}
    record_smart = getattr(device, "record_smart", None)

    def sample(writes: int) -> int:
        capacity = device.capacity_lbas
        if sampler is not None:
            t = float(writes)
            sampler.record("repro_lifetime_capacity_lbas", t,
                           float(capacity), labels=device_labels,
                           unit="lbas")
            if record_smart is not None:
                record_smart(t, sampler)
        return capacity

    initial = sample(0)
    floor = capacity_floor_fraction * initial
    curve: list[tuple[int, int]] = [(0, initial)]
    writes = 0
    cause = "max-writes"
    while writes < max_writes:
        capacity = device.capacity_lbas
        if capacity < floor or capacity == 0:
            cause = "capacity-floor"
            break
        try:
            if by_minidisk:
                active = device.active_minidisks()
                mdisk = active[int(integers(0, len(active)))]
                hot = max(1, int(utilization * mdisk.size_lbas))
                lba = int(integers(0, hot))
                write(mdisk.mdisk_id, lba,
                      stamp_payload(mdisk.flat_base + lba, writes))
            else:
                hot = max(1, int(utilization * capacity))
                lba = int(integers(0, hot))
                write(lba, stamp_payload(lba, writes))
        except ReproError as error:
            cause = type(error).__name__
            break
        writes += 1
        if writes % sample_every == 0:
            curve.append((writes, sample(writes)))
    final = sample(writes)
    curve.append((writes, final))
    wear = device.chip.wear_summary()
    return LifetimeResult(
        host_writes=writes,
        death_cause=cause,
        initial_capacity_lbas=initial,
        final_capacity_lbas=final,
        capacity_curve=curve,
        mean_pec_at_death=wear["mean_pec"],
        stats=device.stats.snapshot(),
    )

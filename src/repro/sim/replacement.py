"""Datacenter replacement-policy simulation: measuring the upgrade rate.

The paper's sustainability math (§4.1, §4.4) *assumes* relative upgrade
rates (``Ru_{S|B}``) derived from estimated lifetime gains. This module
closes the loop: it simulates a datacenter that maintains a device
population over many years under a replacement policy and *measures* how
many drives each discipline purchases.

Policies reflect §2.1's field reality:

* baseline/CVSS fleets are replaced **preemptively** at ``age_limit_years``
  ("datacenter operators regularly and proactively replace SSDs after
  several years — long before they fail") or at failure, whichever first;
* Salamander fleets, whose devices "fail more gradually", skip preemptive
  retirement ("alleviates the need for premature, preemptive device
  retirement") and run until the capacity floor.

Each rack slot is a renewal process: when its device leaves service a new
one is installed; purchases over the horizon are the embodied-carbon and
acquisition-cost proxy. Service-life distributions come from the fleet
simulator, so all disciplines share hardware statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigError
from repro.flash.geometry import FlashGeometry
from repro.rng import fork_rng, make_rng
from repro.sim.fleet import MODES, FleetConfig, simulate_fleet

PREEMPTIVE_MODES = ("baseline", "cvss")


@dataclass(frozen=True)
class ReplacementConfig:
    """Replacement experiment parameters.

    The defaults are the shipped experiment
    (``scenarios/measured_upgrade_rates.json``, the EXT-RU bench).

    Attributes:
        fleet: device/workload parameters (its ``horizon_days`` is ignored;
            the life-distribution run uses a horizon long enough to observe
            every death): 32 devices on 64x32 blocks at 0.7 DWPD.
        slots: rack slots to maintain (each is one renewal process).
        horizon_years: operating period to simulate.
        age_limit_years: preemptive replacement age for monolithic fleets;
            None disables preemption everywhere.
    """

    fleet: FleetConfig = field(default_factory=lambda: FleetConfig(
        devices=32, geometry=FlashGeometry(blocks=64, fpages_per_block=32),
        dwpd=0.7, step_days=10))
    slots: int = 100
    horizon_years: float = 15.0
    age_limit_years: float | None = 5.0

    def __post_init__(self) -> None:
        if self.slots <= 0:
            raise ConfigError(f"slots must be positive, got {self.slots!r}")
        if self.horizon_years <= 0:
            raise ConfigError(
                f"horizon_years must be positive, got {self.horizon_years!r}")
        if self.age_limit_years is not None and self.age_limit_years <= 0:
            raise ConfigError(
                f"age_limit_years must be positive or None, "
                f"got {self.age_limit_years!r}")


@dataclass
class ReplacementResult:
    """Outcome of one (config, mode) replacement run.

    Attributes:
        mode: device discipline.
        purchases: devices bought over the horizon (including the initial
            population).
        mean_service_life_days: average days a device stayed in service.
        mean_capacity_fraction: average advertised capacity while in
            service, relative to a new device (feeds Cap(B_new) in Eq. 4).
        preempted_fraction: fraction of retirements that were preemptive
            (age limit) rather than failures.
    """

    mode: str
    purchases: int
    mean_service_life_days: float
    mean_capacity_fraction: float
    preempted_fraction: float


def simulate_replacement(config: ReplacementConfig, mode: str,
                         seed: int | np.random.Generator | None = None,
                         ) -> ReplacementResult:
    """Measure purchases for one discipline under the replacement policy."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    rng = make_rng(seed)
    # Life distribution: run the fleet until every device has died.
    probe_horizon = 30 * 365
    fleet_config = replace(config.fleet, horizon_days=probe_horizon)
    fleet = simulate_fleet(fleet_config, mode, seed=fork_rng(rng, "lives"))
    lives = np.minimum(fleet.death_day, probe_horizon)
    # Average capacity while in service (advertised vs new), from the
    # aggregate series: capacity-days divided by device-days.
    device_days = float(fleet.functioning.sum()) * fleet_config.step_days
    capacity_days = (float(fleet.capacity_bytes.sum())
                     * fleet_config.step_days)
    per_device = fleet.initial_capacity_bytes / fleet_config.devices
    mean_capacity_fraction = (capacity_days / (device_days * per_device)
                              if device_days else 0.0)

    preemptive = (config.age_limit_years is not None
                  and mode in PREEMPTIVE_MODES)
    age_limit_days = (config.age_limit_years * 365.0
                      if config.age_limit_years is not None else np.inf)

    draw_rng = fork_rng(rng, "renewal", mode)
    horizon_days = config.horizon_years * 365.0
    purchases = 0
    retirements = 0
    preempted = 0
    total_service_days = 0.0
    for _slot in range(config.slots):
        elapsed = 0.0
        while elapsed < horizon_days:
            purchases += 1
            life = float(lives[int(draw_rng.integers(0, lives.size))])
            if preemptive and life > age_limit_days:
                life = age_limit_days
                was_preempted = True
            else:
                was_preempted = False
            service = min(life, horizon_days - elapsed)
            total_service_days += service
            elapsed += life
            if elapsed < horizon_days:
                retirements += 1
                if was_preempted:
                    preempted += 1
    return ReplacementResult(
        mode=mode,
        purchases=purchases,
        mean_service_life_days=total_service_days / max(1, purchases),
        mean_capacity_fraction=mean_capacity_fraction,
        preempted_fraction=(preempted / retirements if retirements else 0.0),
    )


def measured_upgrade_rates(config: ReplacementConfig,
                           seed: int | np.random.Generator | None = None,
                           ) -> dict[str, ReplacementResult]:
    """Run every discipline; ``Ru_{S|B}`` is ``purchases_S / purchases_B``."""
    rng = make_rng(seed)
    base_seed = int(rng.integers(0, 2**31))
    return {mode: simulate_replacement(config, mode, seed=base_seed)
            for mode in MODES}

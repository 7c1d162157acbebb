"""Simulation engines.

Two granularities, sharing the same flash models:

* :mod:`repro.sim.lifetime` — functional single-device experiments: drive a
  real (simulated) device with a workload until it dies, recording capacity
  and wear along the way. Exact, but MiB-scale.
* :mod:`repro.sim.fleet` — vectorised population model for year-scale
  questions (Fig. 3a/3b): per-page process variation is sampled exactly,
  wear advances analytically under a DWPD schedule, and the four device
  disciplines (baseline / CVSS / ShrinkS / RegenS) are evaluated from the
  same variation draws.

:mod:`repro.sim.parallel` fans multi-seed sweeps out over worker
processes with bit-identical merged results.
"""

from repro.sim.lifetime import LifetimeResult, run_write_lifetime
from repro.sim.fleet import (
    FleetConfig,
    FleetResult,
    forget_hardware,
    simulate_fleet,
)
from repro.sim.parallel import (
    FleetTask,
    derive_seeds,
    parallel_map,
    run_fleet_grid,
)
from repro.sim.replacement import (
    ReplacementConfig,
    ReplacementResult,
    measured_upgrade_rates,
    simulate_replacement,
)

__all__ = [
    "LifetimeResult",
    "run_write_lifetime",
    "FleetConfig",
    "FleetResult",
    "simulate_fleet",
    "forget_hardware",
    "FleetTask",
    "derive_seeds",
    "parallel_map",
    "run_fleet_grid",
    "ReplacementConfig",
    "ReplacementResult",
    "simulate_replacement",
    "measured_upgrade_rates",
]

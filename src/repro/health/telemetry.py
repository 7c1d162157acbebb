"""SMART-style telemetry trajectories for a population of baseline SSDs.

Generates, per device, the counters an operator can actually observe —
age, cumulative host writes, grown-bad-block count — sampled periodically
until the device bricks (bad-block threshold) or fails for unrelated
reasons (AFR). The latent per-page/block endurance draw is *not* exposed:
that is exactly why prediction is non-trivial and why the studies the
paper cites ([28-31]) mine bad-block trajectories.

Built on the same models as :mod:`repro.sim.fleet` (multiplicative
lognormal variation, calibrated RBER power law), so the population
statistics match the other experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.flash.geometry import FlashGeometry
from repro.flash.rber import lognormal_page_variation
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.rng import fork_rng, make_rng


@dataclass(frozen=True)
class TelemetryConfig:
    """Telemetry population parameters.

    Attributes:
        devices: population size.
        geometry: per-device layout (variance structure).
        pec_limit_l0: rated endurance of a median page.
        variation_sigma: page-to-page endurance spread.
        dwpd / dwpd_cv: mean load and device-to-device load spread.
        write_amplification: assumed WAF.
        afr: annual wear-unrelated failure rate.
        brick_threshold: bad-block fraction at device failure.
        sample_days: telemetry sampling period.
        max_days: horizon after which surviving devices are censored.
    """

    devices: int = 200
    geometry: FlashGeometry = field(
        default_factory=lambda: FlashGeometry(blocks=256,
                                              fpages_per_block=64))
    pec_limit_l0: float = 3000.0
    variation_sigma: float = 0.35
    dwpd: float = 1.0
    dwpd_cv: float = 0.3
    write_amplification: float = 2.0
    afr: float = 0.01
    brick_threshold: float = 0.025
    sample_days: int = 30
    max_days: int = 7300

    def __post_init__(self) -> None:
        if self.devices <= 0:
            raise ConfigError(f"devices must be positive, got {self.devices!r}")
        if self.sample_days <= 0 or self.max_days <= 0:
            raise ConfigError("sample_days and max_days must be positive")
        if not 0 <= self.afr < 1:
            raise ConfigError(f"afr must be in [0, 1), got {self.afr!r}")


@dataclass
class DeviceTrajectory:
    """One device's observable history.

    Attributes:
        device_id: population index.
        days: sample times.
        writes_bytes: cumulative host writes at each sample.
        bad_blocks: grown bad blocks at each sample.
        total_blocks: device block count (for fractions).
        death_day: when the device left service (inf = censored).
        death_cause: ``"wear"``, ``"afr"`` or ``"censored"``.
    """

    device_id: int
    days: np.ndarray
    writes_bytes: np.ndarray
    bad_blocks: np.ndarray
    total_blocks: int
    death_day: float
    death_cause: str

    @property
    def bad_fraction(self) -> np.ndarray:
        return self.bad_blocks / self.total_blocks


def generate_trajectories(config: TelemetryConfig,
                          seed: int | np.random.Generator | None = None,
                          ) -> list[DeviceTrajectory]:
    """Simulate the population and return per-device telemetry."""
    rng = make_rng(seed)
    geometry = config.geometry
    policy = TirednessPolicy(geometry=geometry)
    model = calibrate_power_law(policy, pec_limit_l0=config.pec_limit_l0)
    r0 = policy.max_rber(0)

    hardware = fork_rng(rng, "hardware")
    load_rng = fork_rng(rng, "load")
    afr_rng = fork_rng(rng, "afr")

    if config.dwpd_cv > 0:
        sigma = np.sqrt(np.log1p(config.dwpd_cv**2))
        load = load_rng.lognormal(-sigma**2 / 2, sigma, size=config.devices)
    else:
        load = np.ones(config.devices)

    raw_bytes = geometry.total_opage_slots * geometry.opage_bytes
    daily_pec = (config.dwpd * config.write_amplification
                 / 1.0)  # one drive write ~= one PEC at WAF 1
    step_fail_prob = 1.0 - (1.0 - config.afr)**(config.sample_days / 365.0)

    out = []
    for device_id in range(config.devices):
        pages = lognormal_page_variation(
            fork_rng(hardware, device_id), geometry.total_fpages,
            config.variation_sigma)
        block_max = np.sort(
            pages.reshape(geometry.blocks,
                          geometry.fpages_per_block).max(axis=1))
        days_list, writes_list, bad_list = [], [], []
        death_day, cause = float("inf"), "censored"
        wear = 0.0
        day = 0
        while day < config.max_days:
            day += config.sample_days
            wear += daily_pec * config.sample_days * float(load[device_id])
            rber = float(model.rber(wear))
            if rber > 0:
                threshold = r0 / rber
                bad = geometry.blocks - int(
                    np.searchsorted(block_max, threshold, side="right"))
            else:
                bad = 0
            days_list.append(day)
            writes_list.append(day * config.dwpd * float(load[device_id])
                               * raw_bytes)
            bad_list.append(bad)
            if bad / geometry.blocks > config.brick_threshold:
                death_day, cause = float(day), "wear"
                break
            if afr_rng.random() < step_fail_prob:
                death_day, cause = float(day), "afr"
                break
        out.append(DeviceTrajectory(
            device_id=device_id,
            days=np.array(days_list, dtype=float),
            writes_bytes=np.array(writes_list, dtype=float),
            bad_blocks=np.array(bad_list, dtype=np.int64),
            total_blocks=geometry.blocks,
            death_day=death_day,
            death_cause=cause,
        ))
    return out


"""Shared fixtures: small, fast device configurations.

Test devices are MiB-scale with a drastically reduced PEC limit so wear
experiments finish in milliseconds while exercising exactly the same code
paths as realistic configurations.
"""

from __future__ import annotations

import pytest

from repro import context
from repro.context import RunContext
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.sim.fleet import forget_hardware
from repro.ssd.cvss import CVSSConfig, CVSSDevice
from repro.ssd.device import BaselineSSD, SSDConfig
from repro.ssd.ftl import FTLConfig

TEST_PEC_LIMIT = 25


@pytest.fixture(autouse=True)
def _default_run_context():
    """Every test starts from the all-off run context; whatever a test
    left scoped is reset, never leaked into the next one."""
    assert context.current() == RunContext(), (
        "run-context state leaked into this test")
    yield
    context.reset()


@pytest.fixture(autouse=True)
def _no_held_fleet_hardware():
    """No test's outcome (or draw count) depends on which fleet the
    previous test drew."""
    forget_hardware()


@pytest.fixture
def tiny_geometry() -> FlashGeometry:
    """16 blocks x 8 fPages x 4 oPages = 512 slots (2 MiB of data)."""
    return FlashGeometry(blocks=16, fpages_per_block=8)


@pytest.fixture
def policy(tiny_geometry) -> TirednessPolicy:
    return TirednessPolicy(geometry=tiny_geometry)


@pytest.fixture
def fast_model(policy):
    """Calibrated power law with a tiny PEC limit so wear arrives quickly."""
    return calibrate_power_law(policy, pec_limit_l0=TEST_PEC_LIMIT)


@pytest.fixture
def ftl_config() -> FTLConfig:
    """High over-provisioning + small buffer, sized for tiny chips."""
    return FTLConfig(overprovision=0.25, buffer_opages=8,
                     gc_reserve_blocks=2)


@pytest.fixture
def make_chip(tiny_geometry, policy, fast_model):
    """Factory for tiny chips sharing the fast wear model."""

    def factory(seed: int = 1, variation_sigma: float = 0.3,
                inject_errors: bool = True) -> FlashChip:
        return FlashChip(tiny_geometry, rber_model=fast_model, policy=policy,
                         seed=seed, variation_sigma=variation_sigma,
                         inject_errors=inject_errors)

    return factory


@pytest.fixture
def make_baseline(make_chip, ftl_config):
    def factory(seed: int = 1, **chip_kwargs) -> BaselineSSD:
        return BaselineSSD(make_chip(seed=seed, **chip_kwargs),
                           SSDConfig(ftl=ftl_config))

    return factory


@pytest.fixture
def make_cvss(make_chip, ftl_config):
    def factory(seed: int = 1, retire_rule: str = "first-page",
                **chip_kwargs) -> CVSSDevice:
        return CVSSDevice(make_chip(seed=seed, **chip_kwargs),
                          CVSSConfig(ftl=ftl_config, retire_rule=retire_rule))

    return factory


@pytest.fixture
def make_salamander(make_chip, ftl_config):
    def factory(mode: str = "shrink", seed: int = 1, msize_lbas: int = 32,
                regen_max_level: int = 1, **chip_kwargs) -> SalamanderSSD:
        config = SalamanderConfig(
            msize_lbas=msize_lbas, mode=mode,
            regen_max_level=regen_max_level,
            headroom_fraction=0.25, ftl=ftl_config)
        return SalamanderSSD(make_chip(seed=seed, **chip_kwargs), config)

    return factory

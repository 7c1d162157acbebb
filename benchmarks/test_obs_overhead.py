"""Instrumentation overhead: disabled observability must cost ~nothing.

The acceptance bar for ``repro.obs`` is that a fleet simulation step with
observability *disabled* stays within a few percent of the pre-
instrumentation cost, and that *timeseries sampling* at the default
cadence (a monthly SMART pull, ``timeseries.DEFAULT_CADENCE``) stays
within ~5% — the census piggybacks on the searchsorted calls the step
loop already makes, and non-sample steps pay one ``due()`` check. Hot
loops bind ``None`` for a run-context field that holds its no-op object
(one ``is None`` test) and everything else goes through the no-op
singletons, so the benches below differ only by the real cost of each
enabled layer.

``no_obs`` opts these benches out of the harness's autouse registry
fixture — overhead measurement needs to control exactly which layers
are on.
"""

from __future__ import annotations

import pytest

from repro import context
from repro.context import RunContext
from repro.flash.geometry import FlashGeometry
from repro.obs.noop import NULL_METRICS
from repro.obs.timeseries import DEFAULT_CADENCE, TimeseriesSampler
from repro.sim.fleet import FleetConfig, simulate_fleet

CONFIG = FleetConfig(
    devices=16,
    geometry=FlashGeometry(blocks=64, fpages_per_block=32),
    dwpd=2.0,
    afr=0.01,
    horizon_days=730,
    step_days=10,
)

#: The sampling-overhead bench runs a production-shaped fleet: per-step
#: simulation work must dominate the sampler's fixed per-sample cost
#: (~20us of probe/ring machinery) for the ratio to mean anything. On
#: the toy CONFIG above that fixed cost is a double-digit percentage of
#: an 10ms run; at fleet scale it is the ~1-2% a deployment would see.
SAMPLING_CONFIG = FleetConfig(
    devices=32,
    geometry=FlashGeometry(blocks=128, fpages_per_block=64),
    dwpd=2.0,
    afr=0.01,
    horizon_days=1825,
    step_days=5,
)


@pytest.mark.no_obs
def test_fleet_sim_observability_disabled(benchmark):
    assert context.current() == RunContext()
    result = benchmark(simulate_fleet, CONFIG, "regen", 7)
    assert result.days.size > 0


@pytest.mark.no_obs
def test_fleet_sim_sampling_baseline(benchmark):
    """The production-shaped fleet with everything disabled."""
    assert context.current() == RunContext()
    result = benchmark(simulate_fleet, SAMPLING_CONFIG, "regen", 7)
    assert result.days.size > 0


@pytest.mark.no_obs
def test_fleet_sim_timeseries_default_cadence(benchmark):
    """Sampler-only overhead at the default (monthly) cadence: <=5%
    against ``test_fleet_sim_sampling_baseline``."""
    sampler = TimeseriesSampler(cadence=DEFAULT_CADENCE)
    with context.scoped(timeseries=sampler) as ctx:
        assert ctx.metrics is NULL_METRICS
        result = benchmark(simulate_fleet, SAMPLING_CONFIG, "regen", 7)
    assert result.days.size > 0
    assert sampler.samples_taken > 0


def test_fleet_sim_observability_enabled(benchmark, _obs_snapshot):
    assert context.current().metrics is _obs_snapshot
    result = benchmark(simulate_fleet, CONFIG, "regen", 7)
    assert result.days.size > 0

"""The contract of the fleet's hardware memo (``fleet_hardware``).

The three per-page tables are a function of ``(seed, devices, geometry,
variation_sigma)`` and are drawn once per such key: every discipline,
every device range and every other config field reads the same draw.
All of it deterministic — draws are *counted* (one
``lognormal_page_variation`` call per device drawn), never timed.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.flash.geometry import FlashGeometry
from repro.flash.rber import ExponentialRBER
from repro.flash.tiredness import TirednessPolicy
from repro.rng import make_rng
from repro.sim import fleet, shard
from repro.sim.fleet import (
    MODES,
    FleetConfig,
    FleetResult,
    fleet_hardware,
    forget_hardware,
    simulate_fleet,
)
from repro.sim.shard import simulate_fleet_sharded
from tests.sim.test_shard import _assert_bit_identical

CONFIG = FleetConfig(
    devices=12,
    geometry=FlashGeometry(blocks=16, fpages_per_block=8),
    pec_limit_l0=800.0,
    afr=0.1,
    horizon_days=400,
    step_days=20,
)
SEED = 41

#: What the draw reads, each with a value that must redraw ...
HARDWARE_FIELDS = {
    "devices": 9,
    "geometry": FlashGeometry(blocks=8, fpages_per_block=16),
    "variation_sigma": 0.5,
}
#: ... and every other field, with a value that must not.
OTHER_FIELDS = {
    "pec_limit_l0": 1200.0, "dwpd": 2.5, "dwpd_cv": 0.0,
    "write_amplification": 3.0, "afr": 0.3, "horizon_days": 300,
    "step_days": 10, "headroom_fraction": 0.1, "brick_threshold": 0.1,
    "host_utilization": 0.7, "min_capacity_fraction": 0.4,
    "regen_max_level": 2, "shards": 5, "cvss_rule": "avg-rber",
}


class _Draws:
    """Devices drawn: ``here`` in the test's process, ``elsewhere`` in
    any other (a fork pool's workers share the counter)."""

    def __init__(self) -> None:
        self.home = os.getpid()
        self.here = 0
        self.elsewhere = multiprocessing.Value("i", 0)

    def count(self) -> None:
        if os.getpid() == self.home:
            self.here += 1
        else:
            with self.elsewhere.get_lock():
                self.elsewhere.value += 1


@pytest.fixture
def draws(monkeypatch) -> _Draws:
    real = fleet.lognormal_page_variation
    drawn = _Draws()

    def counted(*args, **kwargs):
        drawn.count()
        return real(*args, **kwargs)

    monkeypatch.setattr(fleet, "lognormal_page_variation", counted)
    return drawn


def _all_modes_and_a_sharded_walk(config: FleetConfig, seed: int) -> None:
    for mode in MODES:
        simulate_fleet(config, mode, seed=seed)
    simulate_fleet_sharded(config, "regen", seed=seed, shards=8, jobs=1)


def test_the_tables_cover_every_config_field():
    """A new ``FleetConfig`` field must be classified here — and, if the
    draw reads it, added to the key in ``fleet_hardware``."""
    assert (set(HARDWARE_FIELDS) | set(OTHER_FIELDS)
            == {f.name for f in fields(FleetConfig)})
    assert not set(HARDWARE_FIELDS) & set(OTHER_FIELDS)


def test_one_seed_is_one_draw_for_every_mode_and_range(draws):
    _all_modes_and_a_sharded_walk(CONFIG, SEED)
    assert draws.here == CONFIG.devices      # not 5 x devices


def test_what_the_draw_reads_redraws(draws):
    _all_modes_and_a_sharded_walk(CONFIG, SEED)
    expected = CONFIG.devices
    _all_modes_and_a_sharded_walk(CONFIG, SEED + 1)
    expected += CONFIG.devices
    assert draws.here == expected
    for name, value in HARDWARE_FIELDS.items():
        config = replace(CONFIG, **{name: value})
        _all_modes_and_a_sharded_walk(config, SEED)
        expected += config.devices
        assert draws.here == expected, name
    # One entry: going back to the first fleet draws it again.
    simulate_fleet(CONFIG, "shrink", seed=SEED)
    assert draws.here == expected + CONFIG.devices


def test_what_the_draw_does_not_read_shares_it(draws):
    simulate_fleet(CONFIG, "baseline", seed=SEED)
    for name, value in OTHER_FIELDS.items():
        _all_modes_and_a_sharded_walk(replace(CONFIG, **{name: value}), SEED)
        assert draws.here == CONFIG.devices, name
    policy = TirednessPolicy(geometry=CONFIG.geometry)
    model = ExponentialRBER.calibrated(pec_limit=250.0,
                                       max_rber=policy.max_rber(0))
    simulate_fleet(CONFIG, "regen", seed=SEED, rber_model=model)
    # The default seed is a seed like any other: None is DEFAULT_SEED.
    simulate_fleet(CONFIG, "regen", seed=None)
    simulate_fleet_sharded(CONFIG, "shrink", seed=None, shards=3)
    assert draws.here == 2 * CONFIG.devices


@pytest.mark.parametrize("mode", MODES)
def test_a_warm_result_equals_a_cold_one(mode):
    forget_hardware()
    cold = simulate_fleet(CONFIG, mode, seed=SEED)
    _assert_bit_identical(simulate_fleet(CONFIG, mode, seed=SEED), cold)
    # Warm from another discipline's (and another range layout's) draw.
    for other in MODES:
        simulate_fleet(CONFIG, other, seed=SEED)
    simulate_fleet_sharded(CONFIG, "cvss", seed=SEED, shards=5)
    _assert_bit_identical(simulate_fleet(CONFIG, mode, seed=SEED), cold)
    for shards in (1, 3, 8, CONFIG.devices + 2):
        forget_hardware()
        cold = simulate_fleet_sharded(CONFIG, mode, seed=SEED, shards=shards)
        warm = simulate_fleet_sharded(CONFIG, mode, seed=SEED, shards=shards)
        _assert_bit_identical(warm, cold)
        simulate_fleet(CONFIG, "baseline", seed=SEED + 1)   # evicts
        simulate_fleet(CONFIG, "baseline", seed=SEED)
        warm = simulate_fleet_sharded(CONFIG, mode, seed=SEED, shards=shards)
        _assert_bit_identical(warm, cold)


def _digest(results: list[FleetResult], rng: np.random.Generator) -> str:
    sha = hashlib.sha256()
    for result in results:
        for f in fields(FleetResult):
            value = getattr(result, f.name)
            sha.update(value.tobytes() if isinstance(value, np.ndarray)
                       else repr(value).encode())
    sha.update(repr(rng.bit_generator.state).encode())
    return sha.hexdigest()


#: Two consecutive calls on ``default_rng(5)``, as the commit before the
#: memo computed them (results and the generator's state on return).
GENERATOR_PINS = {
    "shrink":
        "17a505107713870e8ab8d73099ee8006036d62cd4eaa2322b03031f4592b950e",
    "regen":
        "5e1e56124a4cc4ecec8fc77bb389a10e313c811106667ac02e84055ceaaf04be",
}


@pytest.mark.parametrize("mode", sorted(GENERATOR_PINS))
def test_a_live_generator_is_never_held(draws, mode):
    simulate_fleet(CONFIG, mode, seed=SEED)          # something to hold
    rng = np.random.default_rng(5)
    first = simulate_fleet(CONFIG, mode, seed=rng)
    second = simulate_fleet(CONFIG, mode, seed=rng)
    assert draws.here == 3 * CONFIG.devices          # each call drew
    assert not np.array_equal(first.capacity_bytes, second.capacity_bytes)
    assert _digest([first, second], rng) == GENERATOR_PINS[mode]
    # ... and released what was held rather than keeping two fleets.
    simulate_fleet(CONFIG, mode, seed=SEED)
    assert draws.here == 4 * CONFIG.devices


def test_the_old_tables_are_gone_before_the_next_draw_starts(monkeypatch):
    simulate_fleet(CONFIG, "regen", seed=SEED)
    held = fleet_hardware(CONFIG, SEED, make_rng(SEED))
    references = [weakref.ref(table) for table in held]
    del held
    assert all(reference() is not None for reference in references)
    real = fleet.lognormal_page_variation
    alive_at_draw = []

    def watching(*args, **kwargs):
        alive_at_draw.append([reference() is not None
                              for reference in references])
        return real(*args, **kwargs)

    monkeypatch.setattr(fleet, "lognormal_page_variation", watching)
    simulate_fleet(CONFIG, "regen", seed=SEED + 1)
    assert len(alive_at_draw) == CONFIG.devices
    assert alive_at_draw[0] == [False, False, False]


def test_pool_workers_never_draw(draws, monkeypatch):
    cold = simulate_fleet_sharded(CONFIG, "regen", seed=SEED, shards=4,
                                  jobs=2)
    assert draws.here == CONFIG.devices      # the coordinator's, pre-fork
    assert draws.elsewhere.value == 0
    # The instrument sees workers: without the coordinator's draw each
    # worker draws the whole fleet for the first range it is handed.
    forget_hardware()
    monkeypatch.setattr(shard, "fleet_hardware", lambda *args: None)
    again = simulate_fleet_sharded(CONFIG, "regen", seed=SEED, shards=4,
                                   jobs=2)
    assert draws.elsewhere.value in (CONFIG.devices, 2 * CONFIG.devices)
    assert draws.here == CONFIG.devices
    _assert_bit_identical(again, cold)


def test_the_fleet_micro_benches_time_cold_runs(draws, monkeypatch):
    """Rounds 2+ of a best-of-rounds bench must still pay the draw, or
    the enforced floors stop guarding it."""
    from benchmarks.perf import workloads

    monkeypatch.setenv("REPRO_PERF_FLEET_DEVICES", "8")
    monkeypatch.setenv("REPRO_PERF_FLEET_JOBS", "2")
    expected = 0
    for _round in range(2):
        workloads.fleet_step_micro()
        expected += workloads.FLEET_MICRO_CONFIG.devices
        assert draws.here == expected
        workloads.fleet_wide_micro()
        expected += 8
        assert draws.here == expected
        # The sharded run and its serial reference, cold each.
        assert "speedup" in workloads.fleet_sharded_micro()["meta"]
        expected += 2 * 8
        assert draws.here == expected
    assert draws.elsewhere.value == 0

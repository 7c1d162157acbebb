"""Determinism contract of the sharded fleet runner.

The headline properties (docs/SHARDING.md):

* ``shards=1`` reproduces the serial path **bit-for-bit**, for any
  ``jobs`` value;
* a *fixed* shard count is bit-identical across ``jobs``;
* different shard counts agree to float tolerance (ordered partial
  sums) while every integer series stays exact.

Everything else here (partition layout, empty shards, fault-plan
fallback, telemetry equivalence) is a supporting lemma.

``simulate_fleet`` and ``simulate_fleet_sharded`` share their walk and
their assemble pass, so the serial-equivalence tests guard the layout
and the merge; ``test_fleet_golden.py`` is the independent reference.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import context
from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.flash.geometry import FlashGeometry
from repro.obs import MetricsRegistry, SimTimeTracer, TimeseriesSampler
from repro.sim.fleet import MODES, FleetConfig, simulate_fleet
from repro.sim.shard import (
    ShardTask,
    partition_devices,
    run_shard_task,
    simulate_fleet_sharded,
)

TINY_CONFIG = FleetConfig(
    devices=13,
    geometry=FlashGeometry(blocks=16, fpages_per_block=16),
    pec_limit_l0=300.0,
    variation_sigma=0.35,
    dwpd=2.0,
    write_amplification=2.0,
    afr=0.02,
    horizon_days=730,
    step_days=10,
)

_ARRAYS = ("days", "functioning", "capacity_bytes",
           "capacity_lost_bytes", "death_day")


def _assert_bit_identical(a, b):
    for name in _ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.initial_capacity_bytes == b.initial_capacity_bytes
    assert a.mode == b.mode


class TestPartition:
    def test_balanced_contiguous(self):
        assert partition_devices(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_single_shard_is_whole_fleet(self):
        assert partition_devices(7, 1) == [(0, 7)]

    def test_shards_exceed_devices_yields_empty_tails(self):
        # Empty shards are legal: they contribute zeros to every merge.
        assert partition_devices(3, 5) == [
            (0, 1), (1, 2), (2, 3), (3, 3), (3, 3)]

    def test_covers_every_device_exactly_once(self):
        layout = partition_devices(17, 4)
        seen = [i for start, stop in layout for i in range(start, stop)]
        assert seen == list(range(17))

    def test_invalid_shards_rejected(self):
        with pytest.raises(ConfigError):
            partition_devices(4, 0)
        with pytest.raises(ConfigError):
            partition_devices(-1, 2)


class TestSerialEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    def test_single_shard_is_bit_identical(self, mode):
        serial = simulate_fleet(TINY_CONFIG, mode, seed=77)
        sharded = simulate_fleet_sharded(TINY_CONFIG, mode, seed=77,
                                         shards=1, jobs=1)
        _assert_bit_identical(serial, sharded)

    def test_empty_shards_merge_to_serial(self):
        # shards > devices: the empty tail shards must not perturb
        # anything — integer series stay exact against serial.
        serial = simulate_fleet(TINY_CONFIG, "shrink", seed=77)
        sharded = simulate_fleet_sharded(TINY_CONFIG, "shrink", seed=77,
                                         shards=TINY_CONFIG.devices + 7,
                                         jobs=2)
        assert np.array_equal(serial.functioning, sharded.functioning)
        assert np.array_equal(serial.death_day, sharded.death_day)
        assert np.allclose(serial.capacity_bytes, sharded.capacity_bytes)

    @pytest.mark.parametrize("mode", MODES)
    def test_cross_shard_float_tolerance(self, mode):
        # Different shard counts reorder the capacity partial sums:
        # integers exact, floats allclose — the documented contract.
        serial = simulate_fleet(TINY_CONFIG, mode, seed=77)
        sharded = simulate_fleet_sharded(TINY_CONFIG, mode, seed=77,
                                         shards=3, jobs=1)
        assert np.array_equal(serial.functioning, sharded.functioning)
        assert np.array_equal(serial.death_day, sharded.death_day)
        assert np.allclose(serial.capacity_bytes, sharded.capacity_bytes)
        assert np.allclose(serial.capacity_lost_bytes,
                           sharded.capacity_lost_bytes)


class TestJobsInvariance:
    @pytest.mark.parametrize("jobs", [2, 8])
    def test_fixed_shards_bit_identical_across_jobs(self, jobs):
        base = simulate_fleet_sharded(TINY_CONFIG, "regen", seed=77,
                                      shards=3, jobs=1)
        other = simulate_fleet_sharded(TINY_CONFIG, "regen", seed=77,
                                       shards=3, jobs=jobs)
        _assert_bit_identical(base, other)

    def test_worker_slice_matches_inprocess(self):
        # Group tasks run in-process equal their slice of the layout —
        # the pure-function property the fork pool relies on: four
        # shards in two groups of two, against one unsplit range.
        steps = int(np.ceil(TINY_CONFIG.horizon_days
                            / TINY_CONFIG.step_days))
        pending = (False,) * steps
        whole = run_shard_task(ShardTask(
            TINY_CONFIG, "shrink", 77, 0, TINY_CONFIG.devices, pending))
        layout = partition_devices(TINY_CONFIG.devices, 4)
        groups = [run_shard_task(ShardTask(
            TINY_CONFIG, "shrink", 77, layout[first][0],
            layout[last - 1][1], pending, (layout[first + 1][0],)))
            for first, last in partition_devices(4, 2)]
        for step, in_groups in enumerate(zip(*groups)):
            (unsplit,) = whole[step]
            merged = [part for group in in_groups for part in group]
            assert len(merged) == 4
            assert unsplit.functioning == sum(
                part.functioning for part in merged)
            # Shard-major concatenation is device order.
            assert unsplit.deaths == [
                death for part in merged for death in part.deaths]


class TestValidation:
    def test_config_shards_validated(self):
        with pytest.raises(ConfigError):
            FleetConfig(shards=0)

    def test_runner_shards_validated(self):
        with pytest.raises(ConfigError):
            simulate_fleet_sharded(TINY_CONFIG, "shrink", seed=1, shards=0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            simulate_fleet_sharded(TINY_CONFIG, "warp", seed=1)

    def test_generator_seed_rejected(self):
        with pytest.raises(ConfigError):
            simulate_fleet_sharded(TINY_CONFIG, "shrink",
                                   seed=np.random.default_rng(1))

    def test_config_shards_default_used(self):
        config = FleetConfig(**{**TINY_CONFIG.__dict__, "shards": 3})
        via_config = simulate_fleet_sharded(config, "shrink", seed=77)
        explicit = simulate_fleet_sharded(TINY_CONFIG, "shrink", seed=77,
                                          shards=3)
        _assert_bit_identical(via_config, explicit)


LOSS_PLAN = FaultPlan(events=(
    FaultSpec(site="fleet.step", fault="device_loss", when=3,
              args={"devices": 2}),
))


class TestFaultFallback:
    def test_fault_plan_falls_back_to_serial(self):
        serial = simulate_fleet(TINY_CONFIG, "shrink", seed=77,
                                faults=LOSS_PLAN)
        with pytest.warns(RuntimeWarning, match="fault plan"):
            sharded = simulate_fleet_sharded(TINY_CONFIG, "shrink",
                                             seed=77, faults=LOSS_PLAN,
                                             shards=3, jobs=2)
        _assert_bit_identical(serial, sharded)

    def test_installed_injector_falls_back(self):
        plan = FaultPlan(events=(
            FaultSpec(site="fleet.step", fault="device_loss", when=3,
                      args={"devices": 1}),
        ))
        with context.scoped(faults=FaultInjector(plan)), \
                pytest.warns(RuntimeWarning, match="fault plan"):
            sharded = simulate_fleet_sharded(TINY_CONFIG, "shrink",
                                             seed=77, shards=2)
        serial = simulate_fleet(TINY_CONFIG, "shrink", seed=77,
                                faults=plan)
        _assert_bit_identical(serial, sharded)


    @pytest.mark.parametrize("shards", [None, 1])
    def test_one_shard_with_a_plan_is_silent(self, shards, recwarn):
        # Nothing falls back when the layout already is one range:
        # omitted shards (config.shards == 1) and shards=1 are the
        # simulate_fleet walk, without a warning.
        serial = simulate_fleet(TINY_CONFIG, "shrink", seed=77,
                                faults=LOSS_PLAN)
        sharded = simulate_fleet_sharded(TINY_CONFIG, "shrink", seed=77,
                                         faults=LOSS_PLAN, shards=shards,
                                         jobs=2)
        assert not recwarn.list
        _assert_bit_identical(serial, sharded)

    def test_injected_deaths_reach_metrics_and_trace_in_order(self):
        # Step 3 of this run holds two injected losses and, at afr=0.9,
        # AFR deaths too: injected come first, then afr by index.
        config = FleetConfig(**{**TINY_CONFIG.__dict__, "afr": 0.9})
        registry, tracer = MetricsRegistry(), SimTimeTracer()
        with context.scoped(metrics=registry, tracer=tracer), \
                pytest.warns(RuntimeWarning, match="fault plan"):
            simulate_fleet_sharded(config, "shrink", seed=77,
                                   faults=LOSS_PLAN, shards=3)
        deaths = registry.get("repro_fleet_device_deaths_total")
        injected = deaths.labels(mode="shrink", cause="injected").value
        day30 = [(r.attrs["cause"], r.attrs["device"])
                 for r in tracer.records() if r.time == 30.0]
        assert injected == 2
        causes = [cause for cause, _ in day30]
        assert causes[:2] == ["injected", "injected"]
        assert set(causes[2:]) == {"afr"}
        afr_devices = [device for _, device in day30[2:]]
        assert afr_devices == sorted(afr_devices)


class TestTelemetryEquivalence:
    def _run(self, fn, **kwargs):
        registry, tracer = MetricsRegistry(), SimTimeTracer()
        sampler = TimeseriesSampler(registry=registry, cadence=30.0)
        with context.scoped(metrics=registry, tracer=tracer,
                            timeseries=sampler):
            fn(TINY_CONFIG, "regen", seed=77, **kwargs)
        return sampler.to_dict(), [r.to_json() for r in tracer.records()]

    @staticmethod
    def _sim_pure(document):
        # Wall-clock duration series are execution-dependent even
        # serial-vs-serial; everything else must match exactly.
        document = copy.deepcopy(document)
        document["series"] = [s for s in document["series"]
                              if "duration_seconds" not in s["name"]]
        return document

    def test_timeseries_and_trace_match_serial(self):
        ts_serial, trace_serial = self._run(simulate_fleet)
        ts_sharded, trace_sharded = self._run(
            simulate_fleet_sharded, shards=1, jobs=1)
        assert self._sim_pure(ts_serial) == self._sim_pure(ts_sharded)
        assert trace_serial == trace_sharded

    def test_timeseries_jobs_invariant(self):
        ts_one, trace_one = self._run(simulate_fleet_sharded,
                                      shards=3, jobs=1)
        ts_two, trace_two = self._run(simulate_fleet_sharded,
                                      shards=3, jobs=2)
        assert self._sim_pure(ts_one) == self._sim_pure(ts_two)
        assert trace_one == trace_two

    def test_shard_metrics_exported(self):
        registry = MetricsRegistry()
        with context.scoped(metrics=registry):
            simulate_fleet_sharded(TINY_CONFIG, "shrink", seed=77,
                                   shards=3, jobs=1)
        names = {family["name"]
                 for family in registry.to_dict()["metrics"]}
        assert "repro_shard_tick_seconds" in names
        assert "repro_shard_merge_seconds" in names
        assert "repro_shard_devices" in names

"""Sim-level faults: fleet device losses, jobs invariance."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import context
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.flash.geometry import FlashGeometry
from repro.scenarios import run_scenario
from repro.sim.fleet import FleetConfig, simulate_fleet
from repro.sim.parallel import fleet_tasks


def plan_of(*specs, seed=None):
    return FaultPlan(events=tuple(specs), seed=seed)


@pytest.fixture(scope="module")
def quick_config():
    # Endurance far beyond the horizon and afr=0: nobody dies naturally,
    # so every death in these tests is an injected one.
    return FleetConfig(devices=12,
                       geometry=FlashGeometry(blocks=64, fpages_per_block=32),
                       pec_limit_l0=50_000, dwpd=1.0, afr=0.0,
                       horizon_days=1000, step_days=20)


LOSS_PLAN = FaultPlan(events=(
    FaultSpec(site="fleet.step", fault="device_loss", when=5,
              args={"devices": 3}),
    FaultSpec(site="fleet.step", fault="device_loss", when=20,
              args={"devices": 2}),
))


class TestFleetDeviceLoss:
    def test_losses_land_on_the_specified_steps(self, quick_config):
        clean = simulate_fleet(quick_config, "baseline", seed=9)
        faulty = simulate_fleet(quick_config, "baseline", seed=9,
                                faults=LOSS_PLAN)
        # Step 5 ends on day 100: three devices die there, two more at
        # step 20 (day 400).
        assert np.isinf(clean.death_day).all()
        assert (faulty.death_day == 100.0).sum() == 3
        assert (faulty.death_day == 400.0).sum() == 2
        assert np.isinf(faulty.death_day).sum() == 7
        assert faulty.survivors_at(100.0) == clean.survivors_at(100.0) - 3
        assert faulty.survivors_at(400.0) == clean.survivors_at(400.0) - 5

    def test_plan_argument_beats_installed_singleton(self, quick_config):
        # An explicit plan wins; the run context's injector is the default.
        with context.scoped(faults=FaultInjector(plan_of())):
            result = simulate_fleet(quick_config, "baseline", seed=9,
                                    faults=LOSS_PLAN)
        assert (result.death_day == 100.0).sum() == 3

    def test_injector_instance_is_accepted_and_tallied(self, quick_config):
        injector = FaultInjector(LOSS_PLAN)
        simulate_fleet(quick_config, "baseline", seed=9, faults=injector)
        assert injector.summary()["fired"] == {
            "fleet.step:device_loss": 2}

    def test_deterministic_replay_with_faults(self, quick_config):
        a = simulate_fleet(quick_config, "shrink", seed=3,
                           faults=LOSS_PLAN)
        b = simulate_fleet(quick_config, "shrink", seed=3,
                           faults=LOSS_PLAN)
        np.testing.assert_array_equal(a.death_day, b.death_day)
        np.testing.assert_array_equal(a.capacity_bytes, b.capacity_bytes)


def sweep(config: FleetConfig, plan: FaultPlan | None = None) -> dict:
    """``config`` as a two-seed, two-mode ``fleet`` scenario with
    ``runs``, ``plan`` embedded."""
    scenario = {"name": "sweep", "kind": "fleet", "seed": 1, "runs": 2,
                "modes": ["baseline", "shrink"],
                "params": dataclasses.asdict(config)}
    if plan is not None:
        scenario["faults"] = plan.to_dict()
    return scenario


class TestJobsInvariance:
    def test_sweep_document_identical_across_job_counts(self, quick_config):
        # Each task carries the *plan* (picklable) and builds a fresh
        # injector per run, so worker scheduling cannot leak hit-counter
        # state between grid points.
        tasks = fleet_tasks(quick_config, ("baseline", "shrink"), (1, 2),
                            faults=LOSS_PLAN)
        assert all(task.faults == LOSS_PLAN for task in tasks)
        documents = [json.dumps(run_scenario(sweep(quick_config, LOSS_PLAN),
                                             jobs=jobs).document(),
                                sort_keys=True)
                     for jobs in (1, 2)]
        assert documents[0] == documents[1]
        # The plan did fire: three devices are gone by day 100.
        series = json.loads(documents[0])["series"]
        assert min(series[name]["y"][5] for name in series
                   if name.endswith("/functioning")) <= 9

    def test_fault_free_document_has_no_faults_key(self, quick_config):
        document = run_scenario(sweep(quick_config)).document()
        assert "faults" not in document["meta"]
        faulty = run_scenario(sweep(quick_config, LOSS_PLAN)).document()
        assert faulty["meta"]["faults"]["schema"] == "repro.faults/v1"

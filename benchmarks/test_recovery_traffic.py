"""TAB-REC — recovery traffic (§4.3).

Paper: "the volume of recovery traffic using mDisks will be comparable to
the baseline, at least without regeneration, because the same total number
of LBAs fail over time"; regeneration adds re-failing capacity. Two views:

* **fleet** — capacity-loss series from the population model converted to
  diFS traffic; totals match for baseline vs ShrinkS, but Salamander's
  *peak* burst is minidisk-sized instead of device-sized;
* **functional diFS** — a real cluster over Salamander devices, counting
  actual re-replication bytes through the recovery manager.
"""

import numpy as np
import pytest

import repro.errors as E
from benchmarks.shipped import SCENARIOS
from repro.difs.cluster import Cluster, ClusterConfig
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.models.recovery import RecoveryModel, total_failed_capacity_fraction
from repro.reporting.tables import format_table
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.scenarios import load_scenario, validate_scenario
from repro.sim.fleet import simulate_fleet
from repro.ssd.ftl import FTLConfig


def functional_recovery_bytes(mode: str, rounds: int = 5000) -> dict:
    geometry = FlashGeometry(blocks=32, fpages_per_block=8)
    policy = TirednessPolicy(geometry=geometry)
    model = calibrate_power_law(policy, pec_limit_l0=12)
    ftl = FTLConfig(overprovision=0.25, buffer_opages=8)
    cluster = Cluster(ClusterConfig(replication=2, chunk_lbas=4), seed=5)
    for n in range(4):
        cluster.add_node(f"n{n}")
        chip = FlashChip(geometry, rber_model=model, policy=policy,
                         seed=5 + n, variation_sigma=0.3)
        cluster.add_device(f"n{n}", SalamanderSSD(chip, SalamanderConfig(
            msize_lbas=32, mode=mode, headroom_fraction=0.25, ftl=ftl)))
    rng = np.random.default_rng(1)
    for i in range(40):
        cluster.create_chunk(f"c{i}", f"data-{i}".encode())
    for round_index in range(rounds):
        cluster.time = float(round_index)
        i = int(rng.integers(0, 40))
        try:
            cluster.delete_chunk(f"c{i}")
            cluster.create_chunk(f"c{i}", f"r{round_index}-{i}".encode())
        except E.ReproError:
            pass
        cluster.poll_failures()
        cluster.run_recovery()
    stats = cluster.recovery.stats
    return {
        "volume_failures": stats.volume_failures,
        "bytes_moved": stats.bytes_moved,
        "chunks_lost": stats.chunks_lost,
        "max_event_bytes": max((e.bytes_moved for e in stats.events),
                               default=0),
    }


@pytest.mark.benchmark(group="tab-rec")
def test_recovery_traffic(benchmark, experiment_output):
    functional = benchmark.pedantic(
        lambda: {mode: functional_recovery_bytes(mode)
                 for mode in ("shrink", "regen")},
        rounds=1, iterations=1)

    # The FIG3A/3B fleet, walked here for the FleetResult the recovery
    # model reads (no scenario kind writes this table yet).
    scenario = load_scenario(SCENARIOS / "fleet.json")
    config = validate_scenario(scenario)
    fleet = {mode: simulate_fleet(config, mode, seed=scenario["seed"])
             for mode in scenario["modes"]}
    model = RecoveryModel(utilization=0.5)
    fleet_rows = []
    base_total = None
    for mode, result in fleet.items():
        total = model.traffic_series(result).sum()
        if base_total is None:
            base_total = total
        fleet_rows.append([
            mode,
            f"{total / result.initial_capacity_bytes:.2f}x",
            f"{total / base_total:.2f}x",
            f"{model.peak_step_traffic(result) / result.initial_capacity_bytes:.4f}x",
            f"{total_failed_capacity_fraction(regen_max_level=1 if mode == 'regen' else 0):.2f}",
        ])
    experiment_output(
        "TAB-REC (fleet) — recovery traffic per initial capacity byte "
        "(paper §4.3: ShrinkS comparable to baseline; minidisk peaks tiny)",
        format_table(["mode", "total/capacity", "vs baseline",
                      "peak step/capacity", "analytic bound"], fleet_rows))

    func_rows = [[mode, d["volume_failures"], d["bytes_moved"],
                  d["max_event_bytes"], d["chunks_lost"]]
                 for mode, d in functional.items()]
    experiment_output(
        "TAB-REC (functional diFS) — actual re-replication through the "
        "recovery manager",
        format_table(["mode", "volume failures", "bytes moved",
                      "max single event", "chunks lost"], func_rows))

    # §4.3 shape assertions.
    base = fleet["baseline"]
    shrink = fleet["shrink"]
    base_sum = model.traffic_series(base).sum()
    shrink_sum = model.traffic_series(shrink).sum()
    assert shrink_sum == pytest.approx(base_sum, rel=0.05)
    assert (model.peak_step_traffic(shrink)
            < 0.5 * model.peak_step_traffic(base))
    # Functional: no data loss, and regen sees more failures (its extra
    # regenerated minidisks die too).
    assert functional["shrink"]["chunks_lost"] == 0
    assert (functional["regen"]["volume_failures"]
            >= functional["shrink"]["volume_failures"])

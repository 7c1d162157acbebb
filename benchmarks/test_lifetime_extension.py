"""TAB-LIFE — lifetime extension tournament (§4's "up to 1.5x").

Two independent measurements:

* **functional** — four devices on identical chips (same variation draw),
  written to death through the full FTL/GC/ECC stack;
* **fleet** — the vectorised population model at realistic scale.

Expected shape: baseline < CVSS <= ShrinkS < RegenS, with RegenS >= 1.5x
the baseline's lifetime.
"""

import pytest

from benchmarks.fleet_common import fleet_result
from repro.reporting.tables import format_table
from repro.sim.lifetime import run_write_lifetime, tournament_devices


def functional_tournament():
    return {name: run_write_lifetime(device, utilization=0.6,
                                     capacity_floor_fraction=0.3, seed=0)
            for name, device in tournament_devices().items()}


@pytest.mark.benchmark(group="tab-life")
def test_lifetime_extension_tournament(benchmark, experiment_output):
    functional = benchmark.pedantic(functional_tournament,
                                    rounds=1, iterations=1)
    fleet = {mode: fleet_result(mode)
             for mode in ("baseline", "cvss", "shrink", "regen")}
    fleet_map = {"baseline": "baseline", "cvss": "cvss",
                 "shrinks": "shrink", "regens": "regen"}

    base_writes = functional["baseline"].host_writes
    base_days = fleet["baseline"].mean_lifetime_days()
    rows = []
    for name, result in functional.items():
        days = fleet[fleet_map[name]].mean_lifetime_days()
        rows.append([
            name,
            result.host_writes,
            f"{result.host_writes / base_writes:.2f}x",
            f"{result.mean_pec_at_death:.1f}",
            f"{days:.0f}",
            f"{days / base_days:.2f}x",
        ])
    experiment_output(
        "TAB-LIFE — lifetime extension (paper: CVSS ~+20 % at 50 % util; "
        "Salamander 'up to 1.5x')",
        format_table(["device", "host writes (functional)", "vs baseline",
                      "mean PEC at death", "fleet mean life (days)",
                      "vs baseline"], rows))

    writes = {k: v.host_writes for k, v in functional.items()}
    assert writes["baseline"] < writes["cvss"] <= writes["shrinks"] \
        < writes["regens"]
    assert writes["regens"] / writes["baseline"] >= 1.4
    days = {k: fleet[v].mean_lifetime_days() for k, v in fleet_map.items()}
    assert days["baseline"] < days["shrinks"] < days["regens"]
    assert days["regens"] / days["baseline"] >= 1.5

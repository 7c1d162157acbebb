"""TAB-LIFE — lifetime extension tournament (§4's "up to 1.5x").

Two independent measurements:

* **functional** — ``scenarios/tournament.json``: four devices on
  identical chips (same variation draw), written to death through the full
  FTL/GC/ECC stack;
* **fleet** — ``scenarios/fleet.json``: the vectorised population model at
  realistic scale (the FIG3A/3B run).

Expected shape: baseline < CVSS <= ShrinkS < RegenS, with RegenS >= 1.5x
the baseline's lifetime.
"""

import pytest

from benchmarks.shipped import fleet_document, rows, run_shipped
from repro.reporting.tables import format_table


@pytest.mark.benchmark(group="tab-life")
def test_lifetime_extension_tournament(benchmark, experiment_output):
    functional = rows(benchmark.pedantic(
        lambda: run_shipped("tournament.json"), rounds=1, iterations=1),
        "lifetimes", key="device")
    fleet = rows(fleet_document(), "summary", key="mode")
    fleet_map = {"baseline": "baseline", "cvss": "cvss",
                 "shrinks": "shrink", "regens": "regen"}
    days = {name: fleet[mode]["mean_lifetime_days"]
            for name, mode in fleet_map.items()}

    experiment_output(
        "TAB-LIFE — lifetime extension (paper: CVSS ~+20 % at 50 % util; "
        "Salamander 'up to 1.5x')",
        format_table(["device", "host writes (functional)", "vs baseline",
                      "mean PEC at death", "fleet mean life (days)",
                      "vs baseline"],
                     [[name, row["host_writes"], f"{row['vs_baseline']:.2f}x",
                       f"{row['mean_pec']:.1f}", f"{days[name]:.0f}",
                       f"{days[name] / days['baseline']:.2f}x"]
                      for name, row in functional.items()]))

    writes = {name: row["host_writes"] for name, row in functional.items()}
    assert writes["baseline"] < writes["cvss"] <= writes["shrinks"] \
        < writes["regens"]
    assert writes["regens"] / writes["baseline"] >= 1.4
    assert days["baseline"] < days["shrinks"] < days["regens"]
    assert days["regens"] / days["baseline"] >= 1.5

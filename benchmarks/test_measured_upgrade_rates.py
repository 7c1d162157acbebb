"""EXT-RU — measuring the upgrade rates the paper assumes (§2.1, §4.1, §4.4).

The paper plugs assumed upgrade rates (Ru = 0.9/0.8 conservative, 0.83/0.66
raw) into Eq. 3/Eq. 4. This extension *measures* Ru with a datacenter
replacement simulation (``scenarios/measured_upgrade_rates.json``):
monolithic fleets are preemptively retired at five years (§2.1's field
practice), Salamander fleets run to their capacity floor, and every
discipline's purchases over 15 years are counted. The measured Ru and the
measured mean shrunk capacity (Cap(B_new) in Eq. 4) then feed the paper's
own carbon/cost models.
"""

import pytest

from benchmarks.shipped import rows, run_shipped
from repro.models.carbon import CarbonParams, carbon_savings
from repro.models.tco import TCOParams, tco_savings
from repro.reporting.tables import format_table


@pytest.mark.benchmark(group="ext-ru")
def test_measured_upgrade_rates(benchmark, experiment_output):
    results = rows(benchmark.pedantic(
        lambda: run_shipped("measured_upgrade_rates.json"),
        rounds=1, iterations=1), "upgrade_rates", key="mode")
    table = []
    for mode, r in results.items():
        ru = min(1.0, r["measured_ru"])
        carbon = carbon_savings(CarbonParams(upgrade_rate=ru))
        cost = tco_savings(TCOParams(
            upgrade_rate=ru,
            cap_new=round(1 - r["mean_capacity_fraction"], 2)))
        table.append([
            mode, r["purchases"], f"{r['measured_ru']:.2f}",
            f"{r['mean_service_days']:.0f}",
            f"{r['preempted_fraction']:.0%}",
            f"{r['mean_capacity_fraction']:.2f}",
            f"{carbon:+.1%}", f"{cost:+.1%}",
        ])
    experiment_output(
        "EXT-RU — measured upgrade rates -> Eq. 3 / Eq. 4 "
        "(paper assumed Ru = 0.83/0.66; preemptive retirement at 5 y)",
        format_table(["mode", "purchases (15 y)", "measured Ru",
                      "mean life (d)", "preempted", "mean capacity",
                      "CO2e savings", "TCO savings"], table))

    ru = {mode: r["measured_ru"] for mode, r in results.items()}
    # The paper's assumed rates should be conservative relative to a
    # datacenter that actually retires monolithic drives preemptively.
    assert ru["shrink"] < 0.85
    assert ru["regen"] < ru["shrink"]
    assert ru["cvss"] > ru["shrink"]  # CVSS is still preemptively retired
    assert results["baseline"]["preempted_fraction"] > 0.2

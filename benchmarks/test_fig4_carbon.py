"""FIG4 — CO2e reduction across system configurations (Fig. 4, Eq. 3).

Paper §4.1: "Salamander achieves 3-8% CO2e savings in current designs ...
if one considers the reduction ... when using only renewables, these gains
increase to 11-20%". The bench times ``scenarios/carbon.json``: Eq. 3
across the figure's bar set plus an f_op sensitivity sweep.
"""

import pytest

from benchmarks.shipped import rows, run_shipped
from repro.reporting.tables import format_table, render_bars


@pytest.mark.benchmark(group="fig4")
def test_fig4_carbon_savings(benchmark, experiment_output):
    document = benchmark(run_shipped, "carbon.json")
    bars = {row["configuration"]: row["savings"]
            for row in rows(document, "fig4")}
    experiment_output(
        "FIG4 — CO2e savings per configuration (paper Fig. 4; "
        "3-8 % current, 11-20 % renewable)",
        render_bars({k: v * 100 for k, v in bars.items()}, unit="%"))
    experiment_output(
        "FIG4 (sensitivity) — RegenS savings vs operational share f_op",
        format_table(["f_op", "mode", "savings"],
                     [[f"{row['f_op']:.2f}", "regens",
                       f"{row['regens']:+.1%}"]
                      for row in rows(document, "f_op")]))

    assert 0.02 <= bars["shrinks/current"] <= 0.04
    assert 0.07 <= bars["regens/current"] <= 0.09
    assert 0.09 <= bars["shrinks/renewable"] <= 0.12
    assert 0.18 <= bars["regens/renewable"] <= 0.22

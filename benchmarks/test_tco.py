"""TAB-COST — total cost of ownership (§4.4, Eq. 4).

Paper: "Salamander achieves 13% and 25% cost savings for ShrinkS and RegenS
accordingly", and "if we assume half the cost is operational costs,
Salamander lowers costs by 6-14%". The bench times ``scenarios/tco.json``:
Eq. 4 with the paper's constants, and a sweep of the operational share.
"""

import pytest

from benchmarks.shipped import rows, run_shipped
from repro.reporting.tables import format_table


@pytest.mark.benchmark(group="tab-cost")
def test_tco_savings(benchmark, experiment_output):
    document = benchmark(run_shipped, "tco.json")
    headline = rows(document, "tco", key="mode")
    sweep = rows(document, "f_opex")
    experiment_output(
        "TAB-COST — Eq. 4 headline (paper: 13 % ShrinkS, 25 % RegenS at "
        "f_opex = 0.14)",
        format_table(["mode", "CRu", "TCO savings"],
                     [[mode, f"{row['cru']:.3f}", f"{row['savings']:+.1%}"]
                      for mode, row in headline.items()]))
    experiment_output(
        "TAB-COST (sensitivity) — savings vs operational cost share "
        "(paper: 6-14 % at f_opex = 0.5)",
        format_table(["f_opex", "shrinks", "regens"],
                     [[f"{row['f_opex']:.2f}", f"{row['shrinks']:+.1%}",
                       f"{row['regens']:+.1%}"] for row in sweep]))

    assert headline["shrinks"]["savings"] == pytest.approx(0.13, abs=0.01)
    assert headline["regens"]["savings"] == pytest.approx(0.25, abs=0.015)
    half = next(row for row in sweep if row["f_opex"] == 0.5)
    assert 0.05 <= half["shrinks"] <= half["regens"] <= 0.16

"""FIG3A — number of functioning SSDs over time (Fig. 3a).

Paper: "Baseline SSDs (red) gradually fail ... For RegenS (green) worn-out
devices can shrink and regenerate and reduce the rate of device failures."
The bench runs ``scenarios/fleet.json`` — the vectorised fleet, every
discipline on identical hardware draws — and prints the survival curves.
"""

import numpy as np
import pytest

from benchmarks.shipped import fleet_document, rows, value_at
from repro.reporting.series import Series
from repro.reporting.tables import render_series


@pytest.mark.benchmark(group="fig3a")
def test_fig3a_fleet_survival(benchmark, experiment_output):
    document = benchmark.pedantic(fleet_document, rounds=1, iterations=1)
    summary = rows(document, "summary", key="mode")
    curves = {mode: document["series"][f"{mode}/functioning"]
              for mode in summary}
    experiment_output(
        "FIG3A — functioning SSDs over time (paper Fig. 3a; Salamander "
        "flattens the failure curve)",
        render_series([Series(mode, np.asarray(curve["x"]) / 365.0,
                              curve["y"], x_label="years",
                              y_label="functioning devices")
                       for mode, curve in curves.items()], points=12))

    lives = {mode: row["mean_lifetime_days"] for mode, row in summary.items()}
    assert lives["baseline"] < lives["shrink"] < lives["regen"]
    # At the baseline fleet's half-life, Salamander keeps more devices up.
    half_life = summary["baseline"]["median_death_day"]
    assert (value_at(curves["regen"], half_life)
            > value_at(curves["baseline"], half_life))

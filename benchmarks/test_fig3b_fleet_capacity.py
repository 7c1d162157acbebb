"""FIG3B — available fleet capacity over time (Fig. 3b).

Same fleet as FIG3A (``scenarios/fleet.json``, one run per session); the
y-axis is total advertised capacity. The paper's point: the baseline
loses capacity in device-sized cliffs, Salamander drains gradually and
retains more capacity at every age.
"""

import numpy as np
import pytest

from benchmarks.shipped import fleet_document, rows, value_at
from repro.reporting.series import Series
from repro.reporting.tables import render_series


@pytest.mark.benchmark(group="fig3b")
def test_fig3b_fleet_capacity(benchmark, experiment_output):
    document = benchmark.pedantic(fleet_document, rounds=1, iterations=1)
    summary = rows(document, "summary", key="mode")
    curves = {mode: document["series"][f"{mode}/capacity"]
              for mode in summary}
    initial = {mode: row["initial_capacity_bytes"]
               for mode, row in summary.items()}
    experiment_output(
        "FIG3B — fleet capacity over time (paper Fig. 3b; gradual decline "
        "instead of cliffs)",
        render_series([Series(mode, np.asarray(curve["x"]) / 365.0,
                              np.asarray(curve["y"]) / initial[mode],
                              x_label="years", y_label="capacity fraction")
                       for mode, curve in curves.items()], points=12))

    # Shape assertions: at the baseline's mean lifetime, Salamander fleets
    # retain strictly more capacity, regen the most.
    day = summary["baseline"]["mean_lifetime_days"]
    fractions = {mode: value_at(curve, day) / initial[mode]
                 for mode, curve in curves.items()}
    assert fractions["baseline"] < fractions["shrink"] <= 1.0
    assert fractions["shrink"] <= fractions["regen"]
    # Baseline declines in whole-device steps; shrink in smaller slivers
    # (a step loses capacity when it ends below the one before it).
    drops = {mode: np.count_nonzero(
        np.diff(curves[mode]["y"], prepend=initial[mode]) < 0)
        for mode in ("baseline", "shrink")}
    assert drops["shrink"] > drops["baseline"]

"""FIG2 — capacity sacrificed vs PEC benefit per tiredness level (Fig. 2).

Paper: "Switching oPages to additional ECC trades capacity for increasingly
diminishing lifetime benefits", with +50 % PEC at L1. The bench times
``scenarios/fig2.json`` — the full first-principles computation (BCH bound
+ binomial-tail inversion + RBER-model calibration) — and prints the curve.
"""

import pytest

from benchmarks.shipped import rows, run_shipped
from repro.flash.ecc import _max_rber_cached
from repro.reporting.tables import format_table


def run_fig2():
    # Clear the capability cache so the bench times real work every round.
    _max_rber_cached.cache_clear()
    return run_shipped("fig2.json")


@pytest.mark.benchmark(group="fig2")
def test_fig2_tiredness_tradeoff(benchmark, experiment_output):
    points = rows(benchmark(run_fig2), "fig2")
    experiment_output(
        "FIG2 — tiredness level vs PEC benefit (paper Fig. 2; "
        "anchor: L1 = +50 %, diminishing marginal gains)",
        format_table(["level", "capacity", "code rate", "max RBER",
                      "PEC limit", "gain vs L0", "marginal"],
                     [[f"L{p['level']}",
                       f"{p['capacity_fraction']:.2f}",
                       f"{p['code_rate']:.3f}",
                       f"{p['max_rber']:.3e}",
                       f"{p['pec_limit']:.0f}",
                       f"{p['pec_gain']:+.0%}",
                       f"{p['marginal_gain']:+.0%}"] for p in points]))
    by_level = {p["level"]: p for p in points}
    assert by_level[1]["pec_gain"] == pytest.approx(0.5, abs=1e-6)
    marginals = [p["marginal_gain"] for p in points[1:]]
    assert all(a > b for a, b in zip(marginals, marginals[1:]))

"""EXT-HEALTH — the §2.1 preemptive-retirement trade, quantified.

The paper's §2.1: operators retire SSDs early "to avoid costly unscheduled
replacements", wasting device life; the cited failure-prediction studies
([28-31]) are the industry's mitigation. This extension reproduces that
pipeline — SMART trajectories, a trained failure predictor, policy
comparison (``scenarios/health.json``) — to quantify the trade Salamander
dissolves: with gradual (minidisk) failures there is nothing "unexpected"
left to predict.
"""

import pytest

from benchmarks.shipped import rows, run_shipped
from repro.reporting.tables import format_table


@pytest.mark.benchmark(group="ext-health")
def test_health_policy_tradeoff(benchmark, experiment_output):
    document = benchmark.pedantic(lambda: run_shipped("health.json"),
                                  rounds=1, iterations=1)
    [report] = rows(document, "predictor")
    outcomes = rows(document, "policies")
    experiment_output(
        "EXT-HEALTH (predictor) — held-out precision/recall at 90-day "
        "horizon",
        format_table(["precision", "recall", "base rate", "samples"],
                     [[f"{report['precision']:.2f}",
                       f"{report['recall']:.2f}",
                       f"{report['base_rate']:.3f}", report["samples"]]]))
    experiment_output(
        "EXT-HEALTH (policies) — §2.1's trade: unexpected failures vs "
        "wasted device life",
        format_table(["policy", "mean life (d)", "unexpected",
                      "preempted", "wasted life"],
                     [[o["policy"], f"{o['mean_service_days']:.0f}",
                       f"{o['unexpected_failure_rate']:.0%}",
                       o["preemptive_retirements"],
                       f"{o['wasted_life_fraction']:.0%}"]
                      for o in outcomes]))

    by_name = {o["policy"]: o for o in outcomes}
    run = by_name["run-to-failure"]
    predictive = by_name["predictive"]
    assert report["precision"] > 2 * report["base_rate"]
    # The §2.1 dilemma: run-to-failure maximises life but every failure is
    # a surprise; prediction recovers most of the life at a fraction of
    # the surprises.
    assert run["unexpected_failure_rate"] > 0.9
    assert predictive["unexpected_failure_rate"] < 0.3
    assert predictive["wasted_life_fraction"] < 0.2

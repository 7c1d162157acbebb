"""EXT-LOAD — 4 KiB read latency vs request rate over a device's life.

Extension beyond the paper, addressing §4.2's audience directly: the users
who "are latency critical and would prefer to lose storage rather than
slow it down" care about latency *under load*. This bench combines the
wear-aware service-time model (retries grow as pages approach their ECC)
with the M/D/c queueing model: as a fixed-code-rate device ages, its
saturation point slides left and tail latency at a fixed load grows; a
RegenS device re-margins its pages at L1 and keeps the knee put.

A second, *measured* leg validates the analytic curve against the queued
IO pipeline: open-loop Poisson reads drive a real FTL device through a
:class:`repro.io.queue.DeviceQueue` at several utilisations and the
measured mean latency must track ``mdc_latency_us`` — the same
measurement ``repro report``'s queueing-latency claim re-runs.
"""

import math

import pytest

from repro.models.performance import PerformanceModel
from repro.models.queueing import mdc_latency_us, saturation_iops
from repro.reporting.tables import format_table

CHANNELS = 8
LIFE_POINTS = {  # label -> page RBER as a fraction of the L0 capability
    "fresh": 0.0,
    "mid-life": 0.7,
    "past-L0-budget": 1.05,
}
LOADS_KIOPS = (20, 60, 100)


def compute_load_matrix():
    model = PerformanceModel()
    r0 = model.policy.max_rber(0)
    rows = []
    for label, fraction in LIFE_POINTS.items():
        rber = r0 * fraction
        # Fixed code rate: the page stays at L0 until firmware retires it.
        service_l0 = model.small_read_latency_us(0, rber=rber)
        # RegenS: a page whose RBER exceeded the L0 capability runs at L1,
        # where the same RBER sits far below the stronger ECC's threshold.
        level = 1 if fraction > 1.0 else 0
        service_regen = model.small_read_latency_us(level, rber=rber)
        for kiops in LOADS_KIOPS:
            iops = kiops * 1000
            rows.append({
                "life": label,
                "kiops": kiops,
                "l0_latency": mdc_latency_us(service_l0, iops, CHANNELS),
                "regen_latency": mdc_latency_us(service_regen, iops,
                                                CHANNELS),
            })
        rows.append({
            "life": label,
            "kiops": "saturation",
            "l0_latency": saturation_iops(service_l0, CHANNELS) / 1000,
            "regen_latency": saturation_iops(service_regen,
                                             CHANNELS) / 1000,
        })
    return rows


def _fmt(value):
    if value == math.inf:
        return "saturated"
    return f"{value:.1f}"


@pytest.mark.benchmark(group="ext-load")
def test_latency_under_load(benchmark, experiment_output):
    rows = benchmark(compute_load_matrix)
    table = [[r["life"], r["kiops"], _fmt(r["l0_latency"]),
              _fmt(r["regen_latency"])] for r in rows]
    experiment_output(
        "EXT-LOAD — 4 KiB read latency (us) vs load over device life "
        f"({CHANNELS} channels; 'saturation' rows are kIOPS capacity)",
        format_table(["life consumed", "load (kIOPS)",
                      "fixed code rate", "RegenS"], table))

    by_key = {(r["life"], r["kiops"]): r for r in rows}
    # Near EOL at high load, the fixed-code-rate device has saturated
    # while RegenS (re-margined at L1) still serves.
    assert by_key[("past-L0-budget", 100)]["l0_latency"] == math.inf
    assert by_key[("past-L0-budget", 100)]["regen_latency"] < 1000
    # Fresh devices are identical — RegenS costs nothing up front.
    assert by_key[("fresh", 60)]["regen_latency"] == pytest.approx(
        by_key[("fresh", 60)]["l0_latency"])
    # Saturation capacity decays with wear for the fixed code rate.
    assert (by_key[("past-L0-budget", "saturation")]["l0_latency"]
            < by_key[("fresh", "saturation")]["l0_latency"])


UTILISATIONS = (0.3, 0.5, 0.7)


@pytest.mark.benchmark(group="ext-load")
def test_latency_under_load_measured(benchmark, experiment_output):
    """Open-loop Poisson reads through the queue track the M/D/c model."""
    from repro.io.probe import measured_queueing_latency

    def sweep():
        return [measured_queueing_latency(rho, n_requests=800)
                for rho in UTILISATIONS]

    runs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[f"{run['utilisation']:.1f}",
             f"{run['iops'] / 1000:.1f}",
             f"{run['measured_mean_latency_us']:.1f}",
             f"{run['analytic_mean_latency_us']:.1f}",
             f"{run['measured_mean_wait_us']:.1f}"]
            for run in runs]
    experiment_output(
        "EXT-LOAD — measured open-loop latency through the queued IO "
        "pipeline vs the analytic M/D/c model (1 channel; fresh device)",
        format_table(["utilisation", "load (kIOPS)", "measured mean (us)",
                      "analytic mean (us)", "measured wait (us)"], rows))
    for run in runs:
        assert run["measured_mean_latency_us"] == pytest.approx(
            run["analytic_mean_latency_us"], rel=0.15)
    # Queueing delay grows with utilisation.
    waits = [run["measured_mean_wait_us"] for run in runs]
    assert waits == sorted(waits)
    assert waits[-1] > 0.0

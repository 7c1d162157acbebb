"""EXT-TAIL — read tail latency over a device's life (§4.2's retry story).

Extension beyond the paper. §4.2 notes that worn pages "potentially
incur overheads for ECC computation and additional read retries", and that
RegenS's lower code rate mitigates this. This bench measures the full read
latency distribution (mean/p50/p99) at several points in a device's life,
for a fixed-code-rate baseline and a RegenS device on identical flash:
near end of life the baseline's tail inflates with retries, while RegenS's
promoted L1 pages regain ECC margin and keep the tail flat.

Probes run through the queued IO pipeline: each checkpoint issues reads
via a fresh :class:`repro.io.queue.DeviceQueue` and the distribution
comes from the latency (``end_us - submit_us``) each dispatch hands
back — the same numbers ``repro_io_latency_us`` observes in production
paths.
"""

import numpy as np
import pytest

import repro.errors as E
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.io import DeviceQueue
from repro.io.request import OP_READ
from repro.reporting.tables import format_table
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.ssd.device import BaselineSSD, SSDConfig
from repro.ssd.ftl import FTLConfig

GEOMETRY = FlashGeometry(blocks=32, fpages_per_block=8)
FTL = FTLConfig(overprovision=0.25, buffer_opages=8)
PEC_LIMIT = 40
CHECKPOINTS = (0.0, 0.6, 0.9)  # fraction of the device's write lifetime


def build(kind: str):
    policy = TirednessPolicy(geometry=GEOMETRY)
    model = calibrate_power_law(policy, pec_limit_l0=PEC_LIMIT)
    chip = FlashChip(GEOMETRY, rber_model=model, policy=policy,
                     seed=1, variation_sigma=0.3, inject_errors=False)
    if kind == "baseline":
        return BaselineSSD(chip, SSDConfig(ftl=FTL))
    return SalamanderSSD(chip, SalamanderConfig(
        msize_lbas=32, mode="regen", headroom_fraction=0.25, ftl=FTL))


def measure_at_checkpoints(kind: str, total_writes: int = 24_000):
    device = build(kind)
    rng = np.random.default_rng(0)
    # Prime the working set so the 0 %-life probe reads real data.
    if kind == "baseline":
        for lba in range(int(device.n_lbas * 0.6)):
            device.write(lba, b"p")
    else:
        for mdisk in device.active_minidisks():
            for lba in range(max(1, int(0.6 * mdisk.size_lbas))):
                device.write(mdisk.mdisk_id, lba, b"p")
    device.flush()
    checkpoints = {}
    next_check = 0
    writes = 0
    while writes <= total_writes:
        fraction = writes / total_writes
        if next_check < len(CHECKPOINTS) and \
                fraction >= CHECKPOINTS[next_check]:
            checkpoints[CHECKPOINTS[next_check]] = _probe_reads(device, rng)
            next_check += 1
        try:
            if kind == "baseline":
                hot = int(device.n_lbas * 0.6)
                device.write(int(rng.integers(0, hot)), b"w")
            else:
                active = device.active_minidisks()
                if not active:
                    break
                mdisk = active[int(rng.integers(0, len(active)))]
                hot = max(1, int(0.6 * mdisk.size_lbas))
                device.write(mdisk.mdisk_id, int(rng.integers(0, hot)), b"w")
        except E.ReproError:
            break
        writes += 1
    return checkpoints


def _probe_reads(device, rng, probes: int = 400):
    """Sample the read-latency distribution through a fresh probe queue."""
    queue = DeviceQueue(device)
    latencies = []
    issued = 0
    attempts = 0
    while issued < probes and attempts < probes * 4:
        attempts += 1
        if isinstance(device, SalamanderSSD):
            active = device.active_minidisks()
            if not active:
                break
            mdisk = active[int(rng.integers(0, len(active)))]
            measured = queue.dispatch(
                OP_READ, int(rng.integers(0, mdisk.size_lbas)),
                mdisk_id=mdisk.mdisk_id)
        else:
            measured = queue.dispatch(
                OP_READ, int(rng.integers(0, device.n_lbas)))
        _result, error, submit, _start, end, _work = measured
        if error is not None:
            if not isinstance(error, E.ReproError):
                raise error
            # A failed probe is not a latency sample (mirrors the legacy
            # reservoir, which only saw successful device reads).
            continue
        latencies.append(end - submit)
        issued += 1
    samples = np.asarray(latencies)
    return (float(samples.mean()), float(np.percentile(samples, 50)),
            float(np.percentile(samples, 99)))


@pytest.mark.benchmark(group="ext-tail")
def test_tail_latency_over_life(benchmark, experiment_output):
    results = benchmark.pedantic(
        lambda: {kind: measure_at_checkpoints(kind)
                 for kind in ("baseline", "regen")},
        rounds=1, iterations=1)
    rows = []
    for kind, checkpoints in results.items():
        for fraction, (mean, p50, p99) in checkpoints.items():
            rows.append([kind, f"{fraction:.0%}", f"{mean:.1f}",
                         f"{p50:.1f}", f"{p99:.1f}"])
    experiment_output(
        "EXT-TAIL — read latency (us) over device life "
        "(retries inflate the worn baseline's tail; RegenS re-margins "
        "pages at L1)",
        format_table(["device", "life consumed", "mean", "p50", "p99"],
                     rows))

    base = results["baseline"]
    regen = results["regen"]
    # The baseline's tail inflates as it nears end of life.
    assert base[0.9][2] > base[0.0][2]
    # RegenS's late-life p99 inflates less than the baseline's (ratio).
    base_inflation = base[0.9][2] / base[0.0][2]
    regen_inflation = regen[0.9][2] / regen[0.0][2]
    assert regen_inflation < base_inflation

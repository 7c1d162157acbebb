"""FIG3C — sequential throughput vs L1 page fraction (Fig. 3c).

Paper §4.2: "sequential access throughput ... degrades by a factor of
4/(4-L) for a given L, e.g., 25 % reduction for L1". The bench produces
the curve two ways: the analytic mix model, and a *measured* run through
the full IO pipeline — host data written through a real FTL over a
population with the given L1 fraction, then sequentially scanned with
``read_range`` requests through a :class:`repro.io.queue.DeviceQueue`;
throughput is data bytes divided by the measured service time each
dispatch reports. Shape check: measured tracks analytic within a few
percent, i.e. the pipeline reproduces the ``4/(4-L)`` degradation
end-to-end rather than only at the chip.
"""

import pytest

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.io import DeviceQueue
from repro.io.request import OP_READ_RANGE
from repro.models.performance import PerformanceModel
from repro.reporting.tables import format_table
from repro.ssd.ftl import FTLConfig, PageMappedFTL

L1_FRACTIONS = [0.0, 0.25, 0.5, 0.75, 1.0]
SCAN_RANGE_LBAS = 32


def build_device(l1_fraction: float) -> PageMappedFTL:
    """FTL over a chip whose pages are L1 at ``l1_fraction``, interleaved.

    The L1 pages are strided (every fourth page for 0.25, etc.) so any
    subset the FTL happens to fill carries a representative mix.
    """
    geometry = FlashGeometry(blocks=16, fpages_per_block=16)
    chip = FlashChip(geometry, seed=1, variation_sigma=0.0,
                     inject_errors=False)
    stride_hits = int(round(l1_fraction * 4))
    for fpage in range(geometry.total_fpages):
        if fpage % 4 < stride_hits:
            chip.set_level(fpage, 1)
    # 40 % of the geometric slots: leaves headroom even when every page
    # runs at L1 (25 % capacity loss) plus the GC reserve blocks.
    n_lbas = int(geometry.total_opage_slots * 0.4)
    config = FTLConfig(overprovision=0.25, buffer_opages=8)
    device = PageMappedFTL(chip, n_lbas, config)
    for lba in range(n_lbas):
        device.write(lba, b"x")
    device.flush()
    return device


def measured_throughput(l1_fraction: float) -> float:
    """Bytes per measured service-microsecond of a queued sequential scan."""
    device = build_device(l1_fraction)
    queue = DeviceQueue(device)
    opage_bytes = device.geometry.opage_bytes
    data_bytes = 0
    service_us = 0.0
    for base in range(0, device.n_lbas, SCAN_RANGE_LBAS):
        count = min(SCAN_RANGE_LBAS, device.n_lbas - base)
        result, error, _submit, start, end, _work = queue.dispatch(
            OP_READ_RANGE, base, count)
        if error is not None:
            raise error
        data_bytes += len(result) * opage_bytes
        service_us += end - start
    assert queue.stats.errors == 0
    return data_bytes / service_us


@pytest.mark.benchmark(group="fig3c")
def test_fig3c_sequential_throughput(benchmark, experiment_output):
    model = PerformanceModel()

    def full_sweep():
        return {f: measured_throughput(f) for f in L1_FRACTIONS}

    measured = benchmark.pedantic(full_sweep, rounds=1, iterations=1)
    base = measured[0.0]
    rows = []
    analytic_points = {}
    for fraction in L1_FRACTIONS:
        mix = ({0: 1.0} if fraction == 0.0
               else {1: 1.0} if fraction == 1.0
               else {0: 1.0 - fraction, 1: fraction})
        analytic = model.sequential_throughput_factor(mix)
        analytic_points[fraction] = analytic
        rows.append([
            f"{fraction:.2f}", f"{analytic:.3f}",
            f"{measured[fraction] / base:.3f}",
            f"{model.sequential_throughput_mbps(mix, channels=8):.0f}",
        ])
    experiment_output(
        "FIG3C — sequential throughput vs fraction of L1 pages "
        "(paper Fig. 3c; L1-only = 0.75x; measured through the queued "
        "IO pipeline; absolute column: 8 channels)",
        format_table(["L1 fraction", "analytic factor", "measured factor",
                      "8-ch device MB/s"], rows))
    # Anchors: all-L1 loses 25 %, and the pipeline measurement tracks
    # the analytic 4/(4-L) model.
    assert analytic_points[1.0] == pytest.approx(0.75)
    for fraction in L1_FRACTIONS:
        assert measured[fraction] / base == pytest.approx(
            analytic_points[fraction], rel=0.08)

"""FIG3D — large random-access latency vs L1 fraction (Fig. 3d).

Paper §4.2: large (16 KiB) accesses slow by ``4/(4-L)`` — a 16 KiB logical
extent occupies 4/3 fPages once pages hold only 3 data oPages — while
"small, random accesses (i.e., 4 KiB pages) will likely have the same
latency". Measured through the queued IO pipeline: host data sits behind
a real FTL, large extents are ``read_range`` requests whose amortised
service time the :class:`repro.io.queue.DeviceQueue` completions report,
and 4 KiB accesses are single-LBA ``read`` requests. The analytic
``large_access_latency_factor`` overlay is kept alongside.
"""

import pytest

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.io import DeviceQueue
from repro.io.request import OP_READ, OP_READ_RANGE
from repro.models.performance import PerformanceModel
from repro.reporting.tables import format_table
from repro.rng import make_rng
from repro.ssd.ftl import FTLConfig, PageMappedFTL

L1_FRACTIONS = [0.0, 0.5, 1.0]
EXTENT_BYTES = 16 * 1024
SCAN_RANGE_LBAS = 32
SMALL_ACCESSES = 300


def build_device(l1_fraction: float) -> PageMappedFTL:
    """FTL over a chip whose pages are L1 at ``l1_fraction``, interleaved."""
    geometry = FlashGeometry(blocks=16, fpages_per_block=16)
    chip = FlashChip(geometry, seed=1, variation_sigma=0.0,
                     inject_errors=False)
    stride_hits = int(round(l1_fraction * 4))
    for fpage in range(geometry.total_fpages):
        if fpage % 4 < stride_hits:
            chip.set_level(fpage, 1)
    n_lbas = int(geometry.total_opage_slots * 0.4)
    config = FTLConfig(overprovision=0.25, buffer_opages=8)
    device = PageMappedFTL(chip, n_lbas, config)
    for lba in range(n_lbas):
        device.write(lba, b"x")
    device.flush()
    return device


def extent_latency_us(device: PageMappedFTL, queue: DeviceQueue) -> float:
    """Expected latency per 16 KiB extent, amortised over a full scan."""
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
    return service_us * EXTENT_BYTES / data_bytes


def small_latency_us(device: PageMappedFTL, queue: DeviceQueue,
                     accesses: int = SMALL_ACCESSES) -> float:
    """Expected latency of single 4 KiB oPage reads at random LBAs."""
    rng = make_rng(7)
    service_us = 0.0
    for _ in range(accesses):
        lba = int(rng.integers(0, device.n_lbas))
        _result, error, _submit, start, end, _work = queue.dispatch(
            OP_READ, lba)
        if error is not None:
            raise error
        service_us += end - start
    assert queue.stats.errors == 0
    return service_us / accesses


@pytest.mark.benchmark(group="fig3d")
def test_fig3d_large_access_latency(benchmark, experiment_output):
    model = PerformanceModel()

    def sweep():
        out = {}
        for fraction in L1_FRACTIONS:
            device = build_device(fraction)
            queue = DeviceQueue(device)
            out[fraction] = (extent_latency_us(device, queue),
                             small_latency_us(device, queue))
        return out

    measured = benchmark.pedantic(sweep, rounds=1, iterations=1)
    base_large, base_small = measured[0.0]
    rows = []
    for fraction in L1_FRACTIONS:
        mix = ({0: 1.0} if fraction == 0.0
               else {1: 1.0} if fraction == 1.0
               else {0: 1.0 - fraction, 1: fraction})
        analytic = model.large_access_latency_factor(mix)
        large, small = measured[fraction]
        rows.append([f"{fraction:.2f}", f"{analytic:.3f}",
                     f"{large / base_large:.3f}",
                     f"{small / base_small:.3f}"])
    experiment_output(
        "FIG3D — 16 KiB access latency vs L1 fraction "
        "(paper Fig. 3d; L1-only = 1.33x; 4 KiB unaffected; measured "
        "through the queued IO pipeline)",
        format_table(["L1 fraction", "analytic 16K factor",
                      "measured 16K factor", "measured 4K factor"], rows))

    large_all_l1 = measured[1.0][0] / base_large
    small_all_l1 = measured[1.0][1] / base_small
    assert large_all_l1 == pytest.approx(4 / 3, rel=0.08)
    assert small_all_l1 == pytest.approx(1.0, rel=0.05)

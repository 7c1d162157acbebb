"""Request-tracing overhead: off must cost ~nothing, 1-in-64 ≤ ~5%.

The reqtrace contract (docs/OBSERVABILITY.md) has two sides:

* **Disabled** — every layer binds the run context's ``reqtrace`` field
  once at construction; with nothing scoped the hot path is one
  ``is None`` test per dispatch. The queue-roundtrip loop here must
  match the committed ``io_dispatch_roundtrip_micro`` floor untouched.
* **Sampled** — with a tracer scoped at the default 1-in-64 period,
  63 of 64 requests still take the unsampled path; only
  the sampled request pays for context activation, busy-ledger reads
  and record assembly. That amortised cost is the ≤5% target the
  ``io_roundtrip_reqtrace_micro`` perf floor enforces in CI.

These benches measure both sides on one fixture so the pytest-benchmark
table shows the delta directly; the hard gate lives in
``benchmarks/perf/`` (floors under ``REPRO_PERF_ENFORCE=1``).
"""

from __future__ import annotations

import pytest

from repro import context
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.io import DeviceQueue
from repro.io.request import OP_READ
from repro.obs.reqtrace import ReqTracer
from repro.ssd.ftl import FTLConfig, PageMappedFTL

READS = 2_000


def _build_queue() -> tuple[DeviceQueue, int]:
    """A half-filled small device behind a queue (reads hit flash)."""
    geometry = FlashGeometry(blocks=32, fpages_per_block=32, channels=2)
    chip = FlashChip(geometry, seed=23, variation_sigma=0.2)
    ftl = PageMappedFTL.for_chip(
        chip, FTLConfig(overprovision=0.25, buffer_opages=16))
    payload = bytes(32)
    fill = ftl.n_lbas // 2
    for lba in range(fill):
        ftl.write(lba, payload)
    ftl.flush()
    return DeviceQueue(ftl), fill


def _read_loop(queue: DeviceQueue, fill: int) -> int:
    dispatch = queue.dispatch
    for i in range(READS):
        dispatch(OP_READ, i % fill)
    return queue.stats.dispatched


@pytest.mark.no_obs
def test_io_roundtrip_tracing_disabled(benchmark):
    assert context.current().reqtrace is None
    queue, fill = _build_queue()
    assert queue._reqtrace is None  # bound off: pure is-None hot path
    dispatched = benchmark(_read_loop, queue, fill)
    assert dispatched >= READS


@pytest.mark.no_obs
def test_io_roundtrip_tracing_sampled_1_in_64(benchmark):
    tracer = ReqTracer(seed=3, every=64)
    with context.scoped(reqtrace=tracer):
        queue, fill = _build_queue()
        assert queue._reqtrace is tracer
        dispatched = benchmark(_read_loop, queue, fill)
    assert dispatched >= READS
    assert tracer.sampled >= READS // 64
    for record in tracer.records:
        assert abs(sum(record["segments"].values())
                   - record["total_us"]) <= 1e-6 * max(
                       1.0, record["total_us"])


@pytest.mark.no_obs
def test_io_roundtrip_tracing_every_request(benchmark):
    """The worst case (every=1): still functional, bounded overhead —
    the knob an operator reaches for when debugging one bad device."""
    tracer = ReqTracer(seed=3, every=1)
    with context.scoped(reqtrace=tracer):
        queue, fill = _build_queue()
        dispatched = benchmark(_read_loop, queue, fill)
    assert dispatched >= READS
    assert tracer.sampled >= READS

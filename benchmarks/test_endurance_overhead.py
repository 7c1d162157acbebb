"""Wear-ledger overhead: off must cost ~nothing, scoped ≤ ~5%.

The endurance contract (docs/OBSERVABILITY.md) mirrors reqtrace's:

* **Disabled** — chips and FTLs bind the run context's ``endurance``
  field once at construction; with nothing scoped the program/erase hot
  path is a single ``is None`` test. The write loop here must match the
  committed ``ftl_write_micro`` floor untouched.
* **Scoped** — every program and erase pays two dict increments and
  a cause-stack read; no RNG, no clock, no allocation. That bounded
  cost is the ≤5% target the ``ftl_write_endurance_micro`` perf floor
  enforces in CI.

Both sides run on one fixture so the pytest-benchmark table shows the
delta directly; the hard gate lives in ``benchmarks/perf/`` (floors
under ``REPRO_PERF_ENFORCE=1``).
"""

from __future__ import annotations

import pytest

from repro import context
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.obs.endurance import EnduranceLedger
from repro.ssd.ftl import FTLConfig, PageMappedFTL

WRITES = 4_000


def _build_ftl() -> PageMappedFTL:
    """A small device sized so the write loop forces steady GC."""
    geometry = FlashGeometry(blocks=32, fpages_per_block=32, channels=2)
    chip = FlashChip(geometry, seed=23, variation_sigma=0.2)
    return PageMappedFTL.for_chip(
        chip, FTLConfig(overprovision=0.25, buffer_opages=16))


def _write_loop(ftl: PageMappedFTL) -> int:
    payload = bytes(32)
    half = ftl.n_lbas // 2
    for i in range(WRITES):
        ftl.write((i * 7) % half, payload)
    ftl.flush()
    return ftl.stats.host_writes


@pytest.mark.no_obs
def test_ftl_write_ledger_disabled(benchmark):
    assert context.current().endurance is None
    ftl = _build_ftl()
    # Bound off at construction: pure is-None hot path on both layers.
    assert ftl._endurance is None
    assert ftl.chip._endurance is None
    host_writes = benchmark(_write_loop, ftl)
    assert host_writes >= WRITES


@pytest.mark.no_obs
def test_ftl_write_ledger_installed(benchmark):
    led = EnduranceLedger()
    with context.scoped(endurance=led):
        ftl = _build_ftl()
        handle = ftl.chip._endurance
        assert handle is led.devices["wear0"]
        host_writes = benchmark(_write_loop, ftl)
    assert host_writes >= WRITES
    # The bench measured a live ledger, not a silently unbound one —
    # and its counters still tie out exactly against the chip.
    assert handle.total_programs == ftl.chip.stats.programs > 0
    assert handle.total_erases == ftl.chip.stats.erases > 0
    assert sum(handle.program_opages.values()) \
        == handle.total_program_opages

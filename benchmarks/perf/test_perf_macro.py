"""Macro perf bench: steady-state GC-heavy writes.

This is the workload the FTL fast path was optimised against: a
90%-full device under uniform random overwrites keeps the garbage
collector running on almost every flush, so allocation, valid-count
maintenance, victim selection and batched chip I/O all sit on the
timed path. Recorded history lives in
``benchmarks/results/BENCH_perf.json``; the pre-fast-path FTL measured
~16k ops/s here, the fast path ~50-60k.

``@pytest.mark.no_obs``: the registry's per-op instrument overhead
would contaminate the measurement — perf metrics are instead published
by the harness *after* timing.
"""

from __future__ import annotations

import pytest

from benchmarks.perf import harness, workloads


@pytest.mark.no_obs
def test_ftl_gc_heavy_macro():
    entry = harness.run("ftl_gc_heavy_macro",
                        workloads.ftl_gc_heavy_macro)
    # The workload is deterministic, so write amplification is a
    # behavioural fingerprint: a WAF shift means the *simulation*
    # changed, not just its speed.
    assert entry["meta"]["waf"] == pytest.approx(2.27, abs=0.1)
    assert entry["ops_per_sec"] > 0

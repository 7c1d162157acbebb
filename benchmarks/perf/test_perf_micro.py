"""Micro perf benches: buffered writes, remount replay, fleet step.

Each bench times one narrower hot path than the GC-heavy macro:

* ``ftl_write_micro`` — buffer/flush/allocation with little GC;
* ``ftl_write_endurance_micro`` — the same loop with the wear ledger
  scoped (the endurance overhead contract), exporting a per-bench
  wear decomposition snapshot;
* ``io_roundtrip_micro`` — the DeviceQueue request/completion plumbing
  the cluster's default IO path now rides on;
* ``io_dispatch_roundtrip_micro`` — the same traffic through
  ``DeviceQueue.dispatch``, request fields with no request objects (the
  traffic engine's surface);
* ``io_roundtrip_reqtrace_micro`` — the same loop with request tracing
  scoped at 1-in-64 sampling (the reqtrace overhead contract);
* ``traffic_engine_micro`` — one multi-tenant traffic-engine cell
  (arrival scheduling, admission control, queue dispatch, accounting);
* ``difs_placement_micro`` — chunk updates + failure polls over ~580
  minidisk volumes (the diFS metadata path on the columnar volume index);
* ``salamander_lifetime_micro`` — the write-until-death harness on a
  RegenS device with ~800 minidisks (the minidisk census: per-write cost
  independent of the minidisk count);
* ``unit_write_micro`` — 16-LBA unit writes through the whole write
  stack (DeviceQueue -> RegenS -> the FTL's range write kernel) at 75 %
  fill with steady GC: one call per layer per unit;
* ``range_read_micro`` — 4-LBA ranged reads with 5 % writes through
  ``DeviceQueue.dispatch`` on a flat level-2 device (the FTL's range
  read kernel and the chip's remembered read cost: the inner loop of the
  ``traffic_scan`` end-to-end workload);
* ``remount_micro`` — the OOB-replay rebuild scan (mount latency);
* ``fleet_step_micro`` — one columnar fleet-model run at the 16-device
  break-even size (the per-step fixed cost; the unit the sweep runner
  parallelises over);
* ``fleet_wide_micro`` — the same walk over 2,048 devices in one
  process (the per-device cost; ``REPRO_PERF_FLEET_DEVICES`` scales it
  to the 10,000-device reading ROADMAP item 1 asks for);
* ``fleet_sharded_micro`` — the same model through the sharded runner
  (worker fan-out, RNG replay, shard-major merge); the floor holds at
  ``jobs=1``, the meta records the measured speedup when cores allow.

All run under ``@pytest.mark.no_obs`` for timing purity; the harness
re-publishes results through the obs registry afterwards.
"""

from __future__ import annotations

import pytest

from benchmarks.perf import harness, workloads


@pytest.mark.no_obs
def test_ftl_write_micro():
    entry = harness.run("ftl_write_micro", workloads.ftl_write_micro)
    assert entry["ops"] == workloads.MICRO_OPS


@pytest.mark.no_obs
def test_ftl_write_endurance_micro():
    entry = harness.run("ftl_write_endurance_micro",
                        workloads.ftl_write_endurance_micro)
    assert entry["ops"] == workloads.MICRO_OPS
    # The ledger was live (not silently unbound) and left its artifact.
    assert entry["meta"]["programs"] > 0
    snapshot = harness._RESULTS_DIR / "endurance" / \
        "perf-ftl_write_endurance_micro.jsonl"
    assert snapshot.exists()


@pytest.mark.no_obs
def test_io_roundtrip_micro():
    entry = harness.run("io_roundtrip_micro", workloads.io_roundtrip_micro)
    assert entry["ops"] == workloads.IO_MICRO_OPS
    assert entry["meta"]["errors"] == 0
    assert entry["meta"]["mean_service_us"] > 0


@pytest.mark.no_obs
def test_io_dispatch_roundtrip_micro():
    entry = harness.run("io_dispatch_roundtrip_micro",
                        workloads.io_dispatch_roundtrip_micro)
    assert entry["ops"] == workloads.IO_MICRO_OPS
    assert entry["meta"]["errors"] == 0
    assert entry["meta"]["dispatched"] == workloads.IO_MICRO_OPS
    assert entry["meta"]["mean_service_us"] > 0


@pytest.mark.no_obs
def test_io_roundtrip_reqtrace_micro():
    entry = harness.run("io_roundtrip_reqtrace_micro",
                        workloads.io_roundtrip_reqtrace_micro)
    assert entry["ops"] == workloads.IO_MICRO_OPS
    assert entry["meta"]["errors"] == 0
    # 1-in-64 sampling actually sampled: the bench measures tracing on,
    # not a silently unbound tracer.
    assert entry["meta"]["sampled"] >= workloads.IO_MICRO_OPS // 64


@pytest.mark.no_obs
def test_traffic_engine_micro():
    entry = harness.run("traffic_engine_micro",
                        workloads.traffic_engine_micro)
    assert entry["ops"] > 0
    assert entry["meta"]["errors"] == 0
    # The traffic window actually ran (the bench is not all prefill).
    assert entry["meta"]["window_requests"] > entry["ops"] // 2


@pytest.mark.no_obs
def test_difs_placement_micro():
    entry = harness.run("difs_placement_micro",
                        workloads.difs_placement_micro)
    assert entry["ops"] == workloads.PLACEMENT_OPS
    assert entry["meta"]["volumes"] >= 500
    # Fresh flash: the loop timed metadata work, not recovery.
    assert entry["meta"]["live_volumes"] == entry["meta"]["volumes"]
    assert entry["meta"]["volume_failures"] == 0


@pytest.mark.no_obs
def test_salamander_lifetime_micro():
    entry = harness.run("salamander_lifetime_micro",
                        workloads.salamander_lifetime_micro)
    assert entry["ops"] == workloads.LIFETIME_MICRO_OPS
    assert entry["meta"]["minidisks"] >= 800
    assert entry["meta"]["small_minidisks"] < 30
    if harness.enforcing():
        # Census reads are O(1) in the minidisk count: 35x the minidisks
        # must not cost 2x per write (recounted per write: 12x).
        assert entry["meta"]["cost_vs_small"] < 2.0


@pytest.mark.no_obs
def test_unit_write_micro():
    entry = harness.run("unit_write_micro", workloads.unit_write_micro)
    assert entry["ops"] == (workloads.UNIT_WRITE_UNITS
                            * workloads.UNIT_WRITE_LBAS)
    assert entry["meta"]["errors"] == 0
    # Full and collecting: the loop timed the write path under GC.
    assert entry["meta"]["fill_fraction"] > 0.7
    assert entry["meta"]["timed_erases"] > 50


@pytest.mark.no_obs
def test_range_read_micro():
    entry = harness.run("range_read_micro", workloads.range_read_micro)
    assert entry["ops"] == workloads.RANGE_READ_REQUESTS
    assert entry["meta"]["errors"] == 0
    # Level 2: two oPages per fPage, so ~3 senses per 4-LBA range — and
    # each fPage's cost derived once, not once per sense.
    assert 2.5 < entry["meta"]["senses_per_range"] < 3.5
    assert 0 < entry["meta"]["remembered_costs"] <= 2048


@pytest.mark.no_obs
def test_remount_micro():
    entry = harness.run("remount_micro", workloads.remount_micro)
    assert entry["meta"]["live_lbas"] > 0


@pytest.mark.no_obs
def test_fleet_step_micro():
    entry = harness.run("fleet_step_micro", workloads.fleet_step_micro)
    assert entry["meta"]["mean_lifetime_days"] > 0


@pytest.mark.no_obs
def test_fleet_wide_micro():
    entry = harness.run("fleet_wide_micro", workloads.fleet_wide_micro)
    assert entry["meta"]["devices"] >= 1
    assert 0 < entry["meta"]["survivors"] <= entry["meta"]["devices"]


@pytest.mark.no_obs
def test_fleet_sharded_micro():
    entry = harness.run("fleet_sharded_micro",
                        workloads.fleet_sharded_micro)
    assert entry["meta"]["mean_lifetime_days"] > 0
    assert entry["meta"]["shards"] == workloads.FLEET_SHARDED_CONFIG.shards
    assert entry["meta"]["jobs"] >= 1

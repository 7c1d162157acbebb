"""Traffic-engine contracts: determinism, admission, artifacts, SLOs.

Three families of guarantees:

* **Determinism** — the merged artifact is byte-identical for any
  ``--jobs`` value and across repeated runs. A mismatch prints a
  one-line reproducer so the failure can be replayed from a shell.
* **Admission properties** — under deliberate saturation the backlog
  and inflight stay bounded, shed/defer accounting sums to the offered
  load exactly, and closed-loop tenants are never shed.
* **Artifact/SLO surface** — schema validation catches conservation
  violations, and attached SLO objectives gate the document.
"""

from __future__ import annotations

import json

import pytest

from repro import artifact
from repro.errors import ConfigError
from repro.obs.slo import SLOObjective
from repro.workloads.engine import (
    EngineConfig,
    EngineConfig as _EC,  # noqa: F401 - reexport check
    is_closed_loop,
    run_cell,
    run_traffic,
    tenant_class,
    validate_engine_document,
)

SEED = 1234


def _dumps(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False)


def _reproducer(config: EngineConfig, seed: int, jobs: int) -> str:
    scenario = json.dumps({"name": "traffic", "kind": "traffic",
                           "seed": seed, "params": {
                               "tenants": config.tenants,
                               "duration_us": config.duration_us,
                               "arrival": config.arrival,
                               "admission": config.admission,
                               "cells": config.cells,
                               "closed_loop_fraction":
                                   config.closed_loop_fraction,
                               "think_us": config.think_us}})
    return (f"echo '{scenario}' > traffic_repro.json && PYTHONPATH=src "
            f"python -m repro run traffic_repro.json --jobs {jobs} "
            f"--out traffic_repro")


class TestDeterminism:
    CONFIG = EngineConfig(tenants=24, duration_us=6000.0, cells=2,
                          closed_loop_fraction=0.25, think_us=50.0)

    def test_byte_identity_across_jobs(self):
        reference = _dumps(run_traffic(self.CONFIG, seed=SEED, jobs=1))
        for jobs in (2, 8):
            candidate = _dumps(run_traffic(self.CONFIG, seed=SEED,
                                           jobs=jobs))
            assert candidate == reference, (
                f"jobs={jobs} artifact diverged from jobs=1; reproduce: "
                + _reproducer(self.CONFIG, SEED, jobs))

    def test_byte_identity_across_repeats(self):
        first = _dumps(run_traffic(self.CONFIG, seed=SEED, jobs=1))
        second = _dumps(run_traffic(self.CONFIG, seed=SEED, jobs=1))
        assert first == second, (
            "repeated run diverged; reproduce: "
            + _reproducer(self.CONFIG, SEED, 1))

    def test_seed_changes_artifact(self):
        a = _dumps(run_traffic(self.CONFIG, seed=SEED, jobs=1))
        b = _dumps(run_traffic(self.CONFIG, seed=SEED + 1, jobs=1))
        assert a != b

    def test_artifact_write_is_byte_stable(self):
        text = artifact.dumps(run_traffic(self.CONFIG, seed=SEED, jobs=1))
        document = artifact.parse_json(text, "traffic document")
        validate_engine_document(document)
        assert artifact.dumps(document) == text


class TestAdmissionProperties:
    #: Utilisation 3 = offered load triple the measured capacity.
    SATURATED = EngineConfig(tenants=12, duration_us=8000.0, cells=1,
                             utilisation=3.0, arrival="mmpp",
                             queue_depth=16)

    @pytest.mark.parametrize("admission", ["shed", "defer"])
    def test_accounting_sums_to_offered_exactly(self, admission):
        from dataclasses import replace
        config = replace(self.SATURATED, admission=admission)
        document = run_traffic(config, seed=SEED, jobs=1)
        totals = document["totals"]
        assert totals["offered"] > 0
        assert totals["offered"] == totals["admitted"] + totals["shed"]
        for row in document["tenants"]:
            assert row["offered"] == row["admitted"] + row["shed"]
            assert row["completed"] <= row["admitted"]
        if admission == "shed":
            assert totals["shed"] > 0  # saturation must actually shed

    @pytest.mark.parametrize("admission", ["shed", "defer"])
    def test_backlog_and_inflight_bounded_under_saturation(self, admission):
        from dataclasses import replace
        config = replace(self.SATURATED, admission=admission)
        document = run_traffic(config, seed=SEED, jobs=1)
        for cell in document["cells"]:
            # The watermark gate caps backlog at the watermark plus at
            # most one burst of already-admitted requests.
            burst_us = (config.bucket_burst * config.tenants
                        * cell["service_us"])
            assert cell["max_backlog_us"] <= (cell["watermark_us"]
                                              + burst_us)
            assert cell["max_inflight"] <= config.queue_depth

    def test_uncontrolled_saturation_grows_backlog(self):
        """Sanity check the property above is not vacuous: with
        admission off the same load blows past the watermark bound."""
        from dataclasses import replace
        config = replace(self.SATURATED, admission="none")
        document = run_traffic(config, seed=SEED, jobs=1)
        cell = document["cells"][0]
        assert cell["max_backlog_us"] > cell["watermark_us"]

    def test_closed_loop_tenants_never_shed(self):
        config = EngineConfig(tenants=10, duration_us=8000.0, cells=1,
                              utilisation=3.0, closed_loop_fraction=0.4,
                              think_us=20.0, admission="shed")
        document = run_traffic(config, seed=SEED, jobs=1)
        closed = [row for row in document["tenants"]
                  if row["loop"] == "closed"]
        assert closed
        for row in closed:
            assert row["shed"] == 0
            assert row["deferrals"] == 0
            assert row["completed"] > 0

    def test_defer_can_exceed_offered_but_shed_cannot(self):
        from dataclasses import replace
        config = replace(self.SATURATED, admission="defer")
        document = run_traffic(config, seed=SEED, jobs=1)
        totals = document["totals"]
        assert totals["shed"] <= totals["offered"]
        assert totals["deferrals"] >= 0


class TestTenantPartition:
    def test_class_mix_partitions_id_space(self):
        config = EngineConfig(tenants=100, mix=(0.25, 0.25, 0.25, 0.25))
        classes = [tenant_class(config, t) for t in range(100)]
        assert classes.count("sequential") == 25
        assert classes.count("uniform") == 25
        assert classes.count("zipfian") == 25
        assert classes.count("mixed") == 25

    def test_closed_loop_tail(self):
        config = EngineConfig(tenants=10, closed_loop_fraction=0.3)
        flags = [is_closed_loop(config, t) for t in range(10)]
        assert sum(flags) == 3
        assert flags[-3:] == [True, True, True]

    def test_trace_replay_class(self):
        trace_text = "repro-trace v1\nW 0\nR 1\nW 2\n"
        config = EngineConfig(tenants=4, trace_text=trace_text)
        assert tenant_class(config, 0) == "trace"


class TestValidation:
    def test_config_rejects_bad_values(self):
        for kwargs in ({"tenants": 0}, {"duration_us": 0.0},
                       {"arrival": "weird"}, {"utilisation": 0.0},
                       {"admission": "maybe"}, {"mix": (1.0,)},
                       {"read_span": 0}, {"level": 7}):
            with pytest.raises(ConfigError):
                EngineConfig(**kwargs)

    def test_validate_catches_conservation_violation(self):
        document = run_traffic(
            EngineConfig(tenants=4, duration_us=2000.0, cells=1),
            seed=SEED)
        validate_engine_document(document)
        broken = json.loads(_dumps(document))
        broken["tenants"][0]["offered"] += 1
        with pytest.raises(ConfigError):
            validate_engine_document(broken)

    def test_validate_catches_closed_loop_shed(self):
        document = run_traffic(
            EngineConfig(tenants=4, duration_us=2000.0, cells=1,
                         closed_loop_fraction=0.5, think_us=10.0),
            seed=SEED)
        broken = json.loads(_dumps(document))
        closed = [r for r in broken["tenants"] if r["loop"] == "closed"]
        closed[0]["shed"] += 1
        closed[0]["offered"] += 1
        broken["totals"]["shed"] += 1
        broken["totals"]["offered"] += 1
        with pytest.raises(ConfigError):
            validate_engine_document(broken)


class TestSLOAttachment:
    def test_slo_section_present_and_gating(self):
        objectives = [SLOObjective(name="all-p99", kind="latency",
                                   percentile=99.0,
                                   threshold_us=10_000_000.0,
                                   window_us=1_000_000.0)]
        document = run_traffic(
            EngineConfig(tenants=6, duration_us=3000.0, cells=1),
            seed=SEED, objectives=objectives)
        assert document["slo"]["ok"] is True
        strict = [SLOObjective(name="impossible", kind="latency",
                               percentile=50.0, threshold_us=0.001,
                               window_us=1_000_000.0)]
        document = run_traffic(
            EngineConfig(tenants=6, duration_us=3000.0, cells=1),
            seed=SEED, objectives=strict)
        assert document["slo"]["ok"] is False

    def test_per_tenant_stream_filter(self):
        """Stream filters select single tenants (tenant id == stream)."""
        objectives = [SLOObjective(name="tenant-0", kind="latency",
                                   stream=0, percentile=99.0,
                                   threshold_us=10_000_000.0,
                                   window_us=1_000_000.0)]
        document = run_traffic(
            EngineConfig(tenants=4, duration_us=3000.0, cells=1),
            seed=SEED, objectives=objectives)
        cell_report = document["slo"]["cells"][0]
        row = cell_report["objectives"][0]
        assert row["name"] == "tenant-0"
        assert row["observed"] > 0


class TestWindowRecord:
    def test_window_excludes_prefill(self):
        config = EngineConfig(tenants=4, duration_us=3000.0, cells=1)
        record = run_cell(config, 0, seed=SEED)
        window = record["window"]
        # The queue counters include prefill writes + pilot probes;
        # the window only holds traffic-window completions.
        assert 0 < window["requests"] < record["queue"]["dispatched"]
        assert window["mean_latency_us"] >= 0.0
        assert window["p99_latency_us"] >= window["mean_latency_us"] or \
            window["requests"] < 2


class TestStages:
    """``run_cell`` is a sequence of stage calls over one cell state;
    each stage can be driven and inspected on its own."""

    CONFIG = EngineConfig(tenants=6, duration_us=3000.0, cells=1,
                          closed_loop_fraction=0.34, think_us=25.0,
                          read_fraction=0.5)

    @staticmethod
    def _calibrated(config, seed=SEED):
        from repro.workloads import engine
        state = engine._build(config, 0, seed)
        engine._prefill(state)
        engine._calibrate(state)
        engine._open_window(state)
        return state

    def test_stage_calls_compose_to_run_cell(self):
        from repro.workloads import engine
        state = self._calibrated(self.CONFIG)
        engine._run_window(state)
        assert (_dumps(engine._report(state, None))
                == _dumps(run_cell(self.CONFIG, 0, seed=SEED)))

    def test_prefill_and_calibrate_leave_the_window_untouched(self):
        state = self._calibrated(self.CONFIG)
        spans = sum(tenant.span for tenant in state.tenants)
        # Every span LBA, the flush, the pilot probes — nothing held.
        assert state.queue.stats.dispatched == spans + 1 + 4
        assert state.queue.inflight == 0
        assert state.samples == [] and state.offered == 0
        assert state.service_est > 0.0
        # One first event per tenant (a 3 ms window outlasts every
        # first arrival at this rate), closed loop ones included.
        assert len(state.heap) == len(state.tenants)

    def test_prefill_stops_a_tenant_at_its_first_error(self):
        from repro.workloads import engine
        config = EngineConfig(tenants=6, cells=1, mode="shrink", blocks=8,
                              fpages_per_block=4, msize_lbas=16,
                              headroom_fraction=0.0)
        state = engine._build(config, 0, SEED)
        engine._prefill(state)
        stats = state.queue.stats
        spans = sum(tenant.span for tenant in state.tenants)
        assert stats.errors > 0
        # Each errored tenant gave up the rest of its span.
        assert stats.dispatched < spans + 1

    @pytest.mark.parametrize("mode", ["cvss", "shrink", "regen"])
    def test_tenants_are_placed_after_aging(self, mode):
        """Aging shrinks these devices (20 passes at seed 20250: CVSS
        192 -> 168 LBAs, 7 minidisks -> 4 or 5); every tenant must sit
        inside what is left, so spans are read after aging."""
        from repro.io.probe import probe_config
        from repro.workloads import engine
        config = probe_config(mode)
        fresh = engine._build(config, 0, 20250)
        aged = engine._build(config, 0, 20250, age_passes=20)
        before = engine._address_spaces(fresh.queue.device, mode)
        after = dict(engine._address_spaces(aged.queue.device, mode))
        assert sum(after.values()) < sum(size for _, size in before)
        for tenant in aged.tenants:
            assert tenant.mdisk in after, tenant
            assert tenant.base + tenant.span <= after[tenant.mdisk], tenant

    def test_aging_past_the_last_minidisk_is_a_config_error(self):
        from repro.io.probe import probe_config
        from repro.workloads import engine
        config = probe_config("shrink")
        with pytest.raises(ConfigError, match="no live address space"):
            engine._build(config, 0, 20250, age_passes=24)

    def test_admit_gates(self, monkeypatch):
        """The admission gates, inline in ``_run_window``, one event at
        a time: the one open-loop tenant holds a pending op (a retry, so
        no arrival is drawn or offered), and a recording push stands in
        for the retry the loop would otherwise go on to run."""
        import heapq
        import types
        from dataclasses import replace
        from repro.workloads import engine
        from repro.workloads.generators import OpType
        config = replace(self.CONFIG, tenants=1, closed_loop_fraction=0.0)
        state = self._calibrated(config)  # admission="defer"
        (tenant,) = state.tenants
        now = tenant.last_refill
        retries = []
        monkeypatch.setattr(engine, "heapq", types.SimpleNamespace(
            heappop=heapq.heappop,
            heappush=lambda heap, event: retries.append(event[0])))

        def event(at):
            """(admitted, shed, deferred) by one event at ``at``, and
            the retry instants it pushed."""
            before = (tenant.admitted, tenant.shed, tenant.deferrals)
            retries.clear()
            tenant.pending = (OpType.READ, 0, None)
            state.heap[:] = [(at, 0, tenant)]
            engine._run_window(state)
            after = (tenant.admitted, tenant.shed, tenant.deferrals)
            return tuple(b - a for a, b in zip(before, after)), retries

        # Full bucket, idle queue: admitted, one token spent.
        before = tenant.tokens
        assert event(now) == ((1, 0, 0), [])
        assert tenant.tokens == before - 1.0

        # Empty bucket: deferred until a whole token has accrued.
        tenant.tokens = 0.25
        assert event(now) == ((0, 0, 1),
                              [now + max(1.0, 0.75 / state.token_rate)])
        assert tenant.tokens == 0.25  # nothing spent

        # Backlog over the watermark (an instant 50 us before the queue
        # drains, watermark 40 us): deferred by the excess or one
        # service time, whichever is longer; no token spent.
        early = state.queue.makespan_us() - 50.0
        tenant.tokens, tenant.last_refill = 3.0, early
        state.watermark_us = 40.0
        assert event(early) == ((0, 0, 1),
                                [early + max(state.service_est, 10.0)])
        assert tenant.tokens == 3.0
        tenant.last_refill = now

        # The shed policy never names a retry instant; "none" has no
        # gates at all.
        tenant.tokens = 0.0
        state.config = replace(config, admission="shed")
        assert event(now) == ((0, 1, 0), [])
        state.config = replace(config, admission="none")
        assert event(now) == ((1, 0, 0), [])
        assert tenant.tokens == 0.0
        # Retries offer nothing.
        assert tenant.offered == state.offered == 0

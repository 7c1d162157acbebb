"""Request tracing: sampling determinism, segment accounting, artifacts.

The attribution pipeline has three contracts worth pinning hard:

* **Zero cost off** — every instrumented layer binds the run context's
  tracer at construction; with none scoped the binding is ``None`` and
  hot paths reduce to one identity test (``tests/test_context.py``
  pins the binding discipline for every layer).
* **Exact decomposition** — every record satisfies
  ``sum(segments) == wait_us + service_us == total_us``; attribution
  that does not add up is worse than none.
* **Jobs-invariance** — probe records are a pure function of
  ``(mode, seed, config)``, byte-identical for any ``--jobs`` layout.
"""

from __future__ import annotations

import json

import pytest

from repro import context
from repro.errors import ConfigError
from repro.io import DeviceQueue, IORequest
from repro.io.probe import ProbeConfig, run_probe, run_probes
from repro.obs import reqtrace
from repro.obs.reqtrace import (
    ReqContext,
    ReqTracer,
    load_reqtrace,
    validate_reqtrace_records,
    write_reqtrace,
)

#: Small probe shape shared by the suite: enough traffic to sample a
#: handful of requests per mode, small enough to stay fast.
FAST_PROBE = ProbeConfig(n_requests=120, every=4, age_passes=8)


@pytest.fixture
def probe_result():
    return run_probe("baseline", seed=11, config=FAST_PROBE)


class TestDisabledBindings:
    def test_nothing_installed_by_default(self):
        assert context.current().reqtrace is None
        assert not reqtrace.enabled()

    def test_every_layer_binds_none_when_disabled(self, make_baseline,
                                                  make_salamander):
        baseline = make_baseline()
        salamander = make_salamander()
        queue = DeviceQueue(baseline)
        for layer in (baseline, salamander, salamander.chip, queue):
            assert layer._reqtrace is None, type(layer).__name__
        assert queue._rt_sampler is None
        # The queue has no SLO hook at all: SLOs are evaluated per
        # traffic cell or offline, never from the queue.
        assert not hasattr(queue, "_slo")

    def test_binding_happens_at_construction_not_per_call(self,
                                                          make_baseline):
        before = DeviceQueue(make_baseline())
        with context.scoped(reqtrace=ReqTracer(seed=1)):
            assert before._reqtrace is None
            during = DeviceQueue(make_baseline())
            assert during._reqtrace is context.current().reqtrace
            bound = during._reqtrace
        assert during._reqtrace is bound
        assert context.current().reqtrace is None

    def test_disabled_queue_behaves_identically(self, make_baseline):
        latencies = []
        for _ in range(2):
            device = make_baseline(seed=5, variation_sigma=0.0,
                                   inject_errors=False)
            for lba in range(16):
                device.write(lba, bytes([lba]) * 8)
            device.flush()
            queue = DeviceQueue(device)
            latencies.append([queue.execute(
                IORequest(op="read", lba=lba)).latency_us
                for lba in range(16)])
        assert latencies[0] == latencies[1]


class TestSampler:
    def test_phase_is_pure_function_of_seed_and_key(self):
        # Creation order must not matter (fork_rng draws from its
        # parent, so the phase comes from a fresh root each time).
        a = ReqTracer(seed=7)
        b = ReqTracer(seed=7)
        a.sampler_for("x")
        assert a.sampler_for("y").phase == b.sampler_for("y").phase

    def test_one_in_every(self):
        tracer = ReqTracer(seed=3, every=4)
        sampler = tracer.sampler_for("dev")
        hits = sum(sampler.sample() for _ in range(400))
        assert hits == 100

    def test_every_one_samples_everything(self):
        sampler = ReqTracer(seed=3, every=1).sampler_for("dev")
        assert all(sampler.sample() for _ in range(16))

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            ReqTracer(every=0)
        with pytest.raises(ConfigError):
            ReqTracer(capacity=0)


class TestReqContext:
    def test_sections_charge_busy_deltas(self):
        ctx = ReqContext()
        ctx.activate(100.0)
        ctx.enter("gc", 110.0)      # 10 to device
        ctx.exit(140.0)             # 30 to gc
        ctx._charge(150.0)          # 10 more to device
        assert ctx.segments == {"device": 20.0, "gc": 30.0}

    def test_leaf_carves_out_of_ambient(self):
        ctx = ReqContext()
        ctx.activate(0.0)
        ctx.leaf("read_retry", 5.0)
        ctx._charge(20.0)
        # The mark advanced by the leaf amount: ambient gets 15, not 20.
        assert ctx.segments == {"read_retry": 5.0, "device": 15.0}

    def test_bump_accumulates_fractional_counts(self):
        ctx = ReqContext()
        ctx.bump("read_retries", 0.25)
        ctx.bump("read_retries", 0.5)
        assert ctx.counts["read_retries"] == pytest.approx(0.75)

    def test_note_level_keeps_max(self):
        ctx = ReqContext()
        ctx.note_level(1)
        ctx.note_level(3)
        ctx.note_level(2)
        assert ctx.level_max == 3


class TestSegmentInvariant:
    def test_probe_records_decompose_exactly(self, probe_result):
        records = probe_result["records"]
        assert records, "probe sampled nothing"
        validate_reqtrace_records(records)
        for record in records:
            total = sum(record["segments"].values())
            assert total == pytest.approx(record["total_us"], abs=1e-9)
            assert record["wait_us"] + record["service_us"] == \
                pytest.approx(record["total_us"], abs=1e-9)
            assert record["segments"]["queue_wait"] == \
                pytest.approx(record["wait_us"], abs=1e-9)

    def test_validation_rejects_broken_sums(self, probe_result):
        record = dict(probe_result["records"][0])
        record["segments"] = dict(record["segments"],
                                  device=record["total_us"] + 50.0)
        with pytest.raises(ConfigError, match="segments sum"):
            validate_reqtrace_records([record])

    def test_validation_rejects_missing_keys(self):
        with pytest.raises(ConfigError, match="missing"):
            validate_reqtrace_records([{"op": "read"}])

    def test_tired_device_attributes_retries(self):
        # The probe's aged chip reads at elevated RBER, so at least
        # some sampled reads must carry retry attribution.
        result = run_probe("regen", seed=11, config=FAST_PROBE)
        segments = {}
        for record in result["records"]:
            for name, value in record["segments"].items():
                segments[name] = segments.get(name, 0.0) + value
        assert "read_retry" in segments


class _StubRequest:
    op = "read"
    lba = 0
    count = 1
    stream = 0
    mdisk_id = None
    tag = 0


class _StubCompletion:
    request = _StubRequest()
    wait_us = 1.0
    service_us = 2.0
    work_us = 2.0
    submit_us = 0.0
    start_us = 1.0
    end_us = 3.0
    latency_us = 3.0
    status = "ok"
    merged = 1
    deadline_missed = False


class TestRingAndArtifact:
    def test_capacity_overflow_counts_drops(self):
        tracer = ReqTracer(seed=1, capacity=2)
        for _ in range(5):
            ctx = tracer.begin()
            ctx.activate(0.0)
            tracer.finish(ctx, _StubCompletion(), "dev", end_busy=2.0)
        assert len(tracer.records) == 2
        assert tracer.dropped == 3
        assert tracer.sampled == 5
        validate_reqtrace_records(list(tracer.records))

    def test_clear_resets_counters(self):
        tracer = ReqTracer(seed=1, capacity=2)
        for _ in range(3):
            ctx = tracer.begin()
            ctx.activate(0.0)
            tracer.finish(ctx, _StubCompletion(), "dev", end_busy=2.0)
        tracer.clear()
        assert not tracer.records
        assert tracer.dropped == 0
        assert tracer.sampled == 0

    def test_round_trip_preserves_records_and_meta(self, tmp_path,
                                                   probe_result):
        records = probe_result["records"]
        path = write_reqtrace(tmp_path / "sub" / "rt.jsonl", records,
                              meta={"seed": 11, "every": 4})
        header, loaded = load_reqtrace(path)
        assert header["schema"] == reqtrace.REQTRACE_SCHEMA
        assert header["meta"]["seed"] == 11
        assert loaded == json.loads(json.dumps(records))
        validate_reqtrace_records(loaded)

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_reqtrace(tmp_path / "absent.jsonl")

    def test_corrupt_line_raises_config_error(self, tmp_path):
        path = tmp_path / "rt.jsonl"
        path.write_text('{"kind": "header", "schema": '
                        '"repro.obs.reqtrace/v1", "meta": {}}\n{broken\n')
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_reqtrace(path)

    def test_wrong_schema_raises_config_error(self, tmp_path):
        path = tmp_path / "rt.jsonl"
        path.write_text('{"kind": "header", "schema": "nope/v0"}\n')
        with pytest.raises(ConfigError, match="schema"):
            load_reqtrace(path)

    def test_headerless_file_raises_config_error(self, tmp_path):
        path = tmp_path / "rt.jsonl"
        path.write_text('{"kind": "request", "op": "read"}\n')
        with pytest.raises(ConfigError, match="header"):
            load_reqtrace(path)


class TestJobsInvariance:
    def test_probe_records_identical_across_jobs(self):
        modes = ("baseline", "shrink")
        sequential = run_probes(modes, seed=11, config=FAST_PROBE,
                                jobs=1)
        parallel = run_probes(modes, seed=11, config=FAST_PROBE, jobs=2)
        assert json.dumps(sequential, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)

    def test_probe_is_pure_function_of_inputs(self, probe_result):
        again = run_probe("baseline", seed=11, config=FAST_PROBE)
        assert json.dumps(again, sort_keys=True) == \
            json.dumps(probe_result, sort_keys=True)

    def test_different_seeds_differ(self, probe_result):
        other = run_probe("baseline", seed=12, config=FAST_PROBE)
        assert json.dumps(other["records"], sort_keys=True) != \
            json.dumps(probe_result["records"], sort_keys=True)

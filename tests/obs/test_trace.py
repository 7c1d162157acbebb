"""Sim-time tracer: spans, events, clocks, ring buffers, export."""

import json

import pytest

from repro import context, obs
from repro.errors import ConfigError
from repro.obs import SimTimeTracer


class FakeClock:
    def __init__(self):
        self.now = 0.0


class TestClock:
    def test_defaults_to_zero(self):
        tracer = SimTimeTracer()
        assert tracer.now() == 0.0

    def test_accepts_callable(self):
        time = [3.0]
        tracer = SimTimeTracer(clock=lambda: time[0])
        assert tracer.now() == 3.0
        time[0] = 4.5
        assert tracer.now() == 4.5

    def test_accepts_now_attribute_object(self):
        clock = FakeClock()
        tracer = SimTimeTracer(clock=clock)
        clock.now = 9.0
        assert tracer.now() == 9.0

    def test_set_clock_swaps_source(self):
        tracer = SimTimeTracer()
        tracer.set_clock(lambda: 7.0)
        assert tracer.now() == 7.0

    def test_bad_clock_rejected(self):
        with pytest.raises(ConfigError):
            SimTimeTracer(clock="wall")

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigError):
            SimTimeTracer(capacity=0)


class TestSpans:
    def test_nested_spans_record_parentage(self):
        clock = FakeClock()
        tracer = SimTimeTracer(clock=clock)
        with tracer.span("outer") as outer:
            clock.now = 1.0
            with tracer.span("inner", device="dev0") as inner:
                clock.now = 2.0
        records = tracer.records()
        assert [r.name for r in records] == ["outer", "inner"]
        by_name = {r.name: r for r in records}
        assert by_name["inner"].parent_id == outer.span_id
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].span_id == inner.span_id
        assert by_name["inner"].start == 1.0
        assert by_name["inner"].end == 2.0
        assert by_name["inner"].attrs == {"device": "dev0"}

    def test_active_depth_tracks_stack(self):
        tracer = SimTimeTracer()
        assert tracer.active_depth == 0
        with tracer.span("a"):
            assert tracer.active_depth == 1
            with tracer.span("b"):
                assert tracer.active_depth == 2
        assert tracer.active_depth == 0

    def test_set_attaches_attrs_mid_flight(self):
        tracer = SimTimeTracer()
        with tracer.span("s") as span:
            span.set(pages=4)
        (record,) = tracer.records()
        assert record.attrs == {"pages": 4}

    def test_exception_marks_error_attr(self):
        tracer = SimTimeTracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (record,) = tracer.records()
        assert record.attrs["error"] == "ValueError"

    def test_events_attach_to_enclosing_span(self):
        tracer = SimTimeTracer()
        tracer.event("orphan")
        with tracer.span("s") as span:
            tracer.event("child", n=1)
        events = [r for r in tracer.records() if not hasattr(r, "end")]
        by_name = {e.name: e for e in events}
        assert by_name["orphan"].span_id is None
        assert by_name["child"].span_id == span.span_id
        assert by_name["child"].attrs == {"n": 1}


class TestRingBuffer:
    def test_oldest_records_evicted_and_counted(self):
        tracer = SimTimeTracer(capacity=4)
        for i in range(6):
            tracer.event(f"e{i}")
        assert tracer.dropped == 2
        assert [r.name for r in tracer.records()] == [
            "e2", "e3", "e4", "e5"]

    def test_clear_resets_everything(self):
        tracer = SimTimeTracer(capacity=2)
        for i in range(4):
            tracer.event(f"e{i}")
        tracer.clear()
        assert tracer.records() == []
        assert tracer.dropped == 0
        assert tracer.active_depth == 0


class TestExport:
    def test_records_ordered_by_time_then_seq(self):
        clock = FakeClock()
        tracer = SimTimeTracer(clock=clock)
        tracer.event("first")
        tracer.event("second")  # same instant: seq breaks the tie
        clock.now = 5.0
        with tracer.span("late"):
            pass
        clock.now = 1.0
        tracer.event("middle")
        assert [r.name for r in tracer.records()] == [
            "first", "second", "middle", "late"]

    def test_export_jsonl_shape(self, tmp_path):
        clock = FakeClock()
        tracer = SimTimeTracer(clock=clock)
        with tracer.span("work", device="dev0"):
            clock.now = 2.0
            tracer.event("tick")
        path = tracer.export_jsonl(tmp_path / "sub" / "trace.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 2
        span = next(line for line in lines if line["kind"] == "span")
        event = next(line for line in lines if line["kind"] == "event")
        assert span["name"] == "work"
        assert span["time"] == 0.0
        assert span["end_time"] == 2.0
        assert span["attrs"] == {"device": "dev0"}
        assert event["span_id"] == span["span_id"]
        # Every record carries a sim timestamp under the same key, and
        # the file is ordered by it (the CI smoke contract).
        times = [line["time"] for line in lines]
        assert times == sorted(times)


    def test_round_trip_after_ring_overflow(self, tmp_path):
        # Eviction must leave a loadable, analyzable artifact: orphaned
        # children (parent evicted) and survivors all round-trip.
        from repro.obs.analyze import analyze_trace, load_trace_jsonl

        clock = FakeClock()
        tracer = SimTimeTracer(clock=clock, capacity=8)
        for i in range(20):
            clock.now = float(i)
            with tracer.span(f"op{i % 2}"):
                clock.now = float(i) + 0.5
                tracer.event("tick")
        # Spans and events ring separately: 8 of each survive, the
        # other 24 are dropped and counted.
        assert tracer.dropped == 24
        assert len(tracer.records()) == 16
        path = tracer.export_jsonl(tmp_path / "overflow.jsonl")
        loaded = load_trace_jsonl(path)
        assert len(loaded) == 16
        assert [r["name"] for r in loaded] == \
            [r.to_json()["name"] for r in tracer.records()]
        summary = analyze_trace(loaded)
        assert summary["record_count"] == 16
        assert summary["span_count"] == 8
        assert summary["event_count"] == 8
        assert summary["critical_path"]  # orphans handled, not crashed


class TestGlobalSingleton:
    """The tracer lives in the run context's ``tracer`` field;
    ``obs.tracing_enabled()`` reads it."""

    def test_noop_by_default(self):
        assert not obs.tracing_enabled()
        assert context.current().tracer is None

    def test_enable_disable_cycle(self):
        tracer = SimTimeTracer()
        with context.scoped(tracer=tracer):
            assert context.current().tracer is tracer
            assert obs.tracing_enabled()
            with tracer.span("kept"):
                pass
            assert len(tracer.records()) == 1
        assert not obs.tracing_enabled()

"""Trace analytics: span stats, critical path, artifact loading."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.obs.analyze import (
    TRACE_SUMMARY_SCHEMA,
    analyze_trace,
    critical_path,
    event_counts,
    format_trace_summary,
    interpolated_percentile,
    load_trace_jsonl,
    segment_breakdown,
    span_stats,
)
from repro.obs.trace import SimTimeTracer


def _span(name, start, end, span_id, parent_id=None):
    return {"kind": "span", "name": name, "time": start,
            "end_time": end, "span_id": span_id, "parent_id": parent_id}


def _event(name, time):
    return {"kind": "event", "name": name, "time": time}


class TestPercentile:
    def test_exact_interpolation(self):
        values = [0.0, 10.0, 20.0, 30.0, 40.0]
        assert interpolated_percentile(values, 50) == 20.0
        assert interpolated_percentile(values, 25) == 10.0
        assert interpolated_percentile(values, 95) == pytest.approx(38.0)
        assert interpolated_percentile(values, 0) == 0.0
        assert interpolated_percentile(values, 100) == 40.0

    def test_degenerate_inputs(self):
        assert interpolated_percentile([], 50) == 0.0
        assert interpolated_percentile([7.5], 99) == 7.5

    def test_out_of_range_q(self):
        with pytest.raises(ConfigError):
            interpolated_percentile([1.0], 101)
        with pytest.raises(ConfigError):
            interpolated_percentile([1.0], -1)


class TestSpanStats:
    def test_per_name_distributions(self):
        records = [
            _span("write", 0, 10, 1),
            _span("write", 10, 30, 2),
            _span("gc", 0, 5, 3),
            _event("retire", 4),
        ]
        stats = span_stats(records)
        assert set(stats) == {"write", "gc"}
        write = stats["write"]
        assert write["count"] == 2
        assert write["total"] == 30.0
        assert write["mean"] == 15.0
        assert write["min"] == 10.0
        assert write["max"] == 20.0
        assert write["p50"] == 15.0

    def test_open_span_uses_start_time(self):
        # A span that never ended has duration 0 (end defaults to time).
        records = [{"kind": "span", "name": "open", "time": 5.0,
                    "span_id": 1, "parent_id": None}]
        assert span_stats(records)["open"]["max"] == 0.0

    def test_event_counts(self):
        records = [_event("a", 1), _event("b", 2), _event("a", 3)]
        assert event_counts(records) == {"a": 2, "b": 1}


class TestCriticalPath:
    def test_descends_into_longest_child(self):
        records = [
            _span("root", 0, 100, 1),
            _span("short-root", 0, 10, 2),
            _span("big-child", 0, 70, 3, parent_id=1),
            _span("small-child", 70, 90, 4, parent_id=1),
            _span("leaf", 10, 50, 5, parent_id=3),
        ]
        path = critical_path(records)
        assert [step["name"] for step in path] == \
            ["root", "big-child", "leaf"]
        assert [step["depth"] for step in path] == [0, 1, 2]
        # Self time = duration minus the children's total.
        assert path[0]["self_time"] == pytest.approx(100 - 90)
        assert path[1]["self_time"] == pytest.approx(70 - 40)
        assert path[2]["self_time"] == pytest.approx(40.0)

    def test_orphan_parent_promoted_to_root(self):
        # parent_id points at a span evicted from the ring: treat as root.
        records = [_span("orphan", 0, 50, 7, parent_id=999)]
        path = critical_path(records)
        assert [step["name"] for step in path] == ["orphan"]

    def test_empty(self):
        assert critical_path([]) == []


class TestAnalyzeTrace:
    def test_live_tracer_records(self):
        tracer = SimTimeTracer(clock=lambda: 0.0)
        clock = [0.0]
        tracer._clock = lambda: clock[0]
        with tracer.span("outer"):
            clock[0] = 2.0
            with tracer.span("inner"):
                clock[0] = 7.0
            tracer.event("tick")
            clock[0] = 10.0
        summary = analyze_trace(tracer.records())
        assert summary["schema"] == TRACE_SUMMARY_SCHEMA
        assert summary["span_count"] == 2
        assert summary["event_count"] == 1
        assert summary["time_range"] == [0.0, 10.0]
        assert summary["spans"]["outer"]["total"] == 10.0
        assert [s["name"] for s in summary["critical_path"]] == \
            ["outer", "inner"]

    def test_rejects_unknown_record_type(self):
        with pytest.raises(ConfigError, match="cannot analyze"):
            analyze_trace([42])

    def test_format_is_markdown(self):
        summary = analyze_trace(
            [_span("s", 0, 3, 1), _event("e", 1)])
        text = format_trace_summary(summary)
        assert "### Trace summary" in text
        assert "| `s` | 1 |" in text
        assert "| `e` | 1 |" in text
        assert "Critical path" in text


class TestLoadTraceJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = [_span("s", 0, 1, 1), _event("e", 0.5)]
        path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n")
        loaded = load_trace_jsonl(path)
        assert loaded == records

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_trace_jsonl(tmp_path / "nope.jsonl")

    def test_corrupt_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "span"\n')
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_trace_jsonl(path)

    def test_non_record_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"foo": 1}\n')
        with pytest.raises(ConfigError, match="trace.jsonl:1 missing 'kind'"):
            load_trace_jsonl(path)


def request_record(total, segments, end=None):
    return {"kind": "request", "name": "io.read", "time": 0.0,
            "end_time": end if end is not None else total,
            "total_us": total, "segments": segments}


class TestSegmentBreakdown:
    def test_shares_sum_to_one_per_cohort(self):
        records = [
            request_record(100.0, {"queue_wait": 60.0, "device": 40.0}),
            request_record(300.0, {"queue_wait": 270.0, "device": 30.0}),
        ]
        breakdown = segment_breakdown(records)
        for cohort in breakdown.values():
            assert sum(cohort["shares"].values()) == pytest.approx(1.0)
        assert breakdown["all"]["count"] == 2
        assert breakdown["all"]["total_us"] == pytest.approx(400.0)
        assert breakdown["all"]["shares"]["queue_wait"] == \
            pytest.approx(330.0 / 400.0)

    def test_tail_cohort_isolates_expensive_requests(self):
        # 99 cheap device-bound requests and one giant queue-bound one:
        # the p99 cohort is just the giant, so its share flips.
        records = [request_record(10.0, {"queue_wait": 1.0,
                                         "device": 9.0})
                   for _ in range(99)]
        records.append(request_record(
            1000.0, {"queue_wait": 990.0, "device": 10.0}))
        breakdown = segment_breakdown(records)
        assert breakdown["p99"]["count"] == 1
        assert breakdown["p99"]["shares"]["queue_wait"] == \
            pytest.approx(0.99)
        assert breakdown["all"]["shares"]["device"] > 0.4

    def test_non_request_records_yield_no_samples_summary(self):
        records = [{"kind": "span", "name": "s", "time": 0.0},
                   {"kind": "header", "name": "reqtrace", "time": 0.0}]
        assert segment_breakdown(records) == {
            "all": {"count": 0, "total_us": 0.0, "shares": {}}}

    def test_empty_input_yields_no_samples_summary(self):
        breakdown = segment_breakdown([])
        assert breakdown["all"] == {"count": 0, "total_us": 0.0,
                                    "shares": {}}
        # The no-samples shape renders as an explicit note, not a
        # degenerate table.
        summary = analyze_trace([])
        text = format_trace_summary(summary)
        assert "no sampled request records" in text
        assert "Latency attribution (segment share" not in text

    def test_single_record_forms_every_cohort(self):
        records = [request_record(100.0, {"queue_wait": 60.0,
                                          "device": 40.0})]
        breakdown = segment_breakdown(records)
        for cohort_name in ("all", "p50", "p99"):
            cohort = breakdown[cohort_name]
            assert cohort["count"] == 1
            assert cohort["total_us"] == pytest.approx(100.0)
            assert sum(cohort["shares"].values()) == pytest.approx(1.0)

    def test_summary_embeds_segments_and_formats_attribution(self):
        records = [
            request_record(10.0, {"queue_wait": 1.0, "device": 9.0}),
            request_record(500.0, {"queue_wait": 450.0, "device": 25.0,
                                   "read_retry": 25.0}),
        ]
        summary = analyze_trace(records)
        assert summary["segments"]["all"]["count"] == 2
        text = format_trace_summary(summary)
        assert "Latency attribution" in text
        assert "`queue_wait`" in text
        # The headline: the p99 cohort is the expensive request, 90%
        # of whose latency is queue wait.
        assert "p99 is 90% `queue_wait`." in text

    def test_header_records_excluded_from_counts(self):
        records = [{"kind": "header", "name": "reqtrace", "time": 0.0,
                    "schema": "repro.obs.reqtrace/v1", "meta": {}},
                   request_record(10.0, {"queue_wait": 10.0})]
        summary = analyze_trace(records)
        assert summary["record_count"] == 1
        assert summary["segments"]["all"]["count"] == 1

"""Trace analytics: aggregate span JSONL into duration stats.

The sim-time tracer (:mod:`repro.obs.trace`) writes raw spans/events;
an operator asking "where did the simulated time go?" wants the
aggregate view: per-name duration distributions (p50/p95/p99 over the
*simulated* clock), event counts, and the critical path — the chain of
nested spans that dominates the longest root span. This module
produces that summary (``repro.obs.trace_summary/v1``) from either a
JSONL artifact or live tracer records; ``repro report`` embeds it.

Percentiles here are *exact* (linear interpolation over the sorted raw
durations), unlike the bucket-resolution estimates the metrics
histograms give — the trace has the raw samples, so use them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

from repro import artifact
from repro.errors import ConfigError
from repro.obs.trace import EventRecord, SpanRecord

#: Version tag stamped into every trace summary document.
TRACE_SUMMARY_SCHEMA = "repro.obs.trace_summary/v1"


#: What every trace line holds; a reqtrace file is a trace file, and the
#: latency breakdown reads these of a record that carries segments.
_RECORD_FIELDS = {"kind": str, "name": str, "time": float}
_REQUEST_FIELDS = {"total_us": float, "segments": dict}


def load_trace_jsonl(path: str | Path) -> list[dict]:
    """Read a trace JSONL artifact into record dicts.

    Raises :class:`~repro.errors.ConfigError` on missing files or
    corrupt lines — ``repro report`` maps that to exit code 2.
    """
    records = []
    for where, record in artifact.read_jsonl(path, "trace artifact"):
        artifact.require(record, where, _RECORD_FIELDS,
                         optional={"end_time": float})
        if "segments" in record:
            segments = artifact.require(record, where,
                                        _REQUEST_FIELDS)["segments"]
            artifact.require(segments, f"{where} segments",
                             dict.fromkeys(segments, float))
        records.append(record)
    return records


def _as_dicts(records: Iterable) -> list[dict]:
    out = []
    for record in records:
        if isinstance(record, (SpanRecord, EventRecord)):
            out.append(record.to_json())
        elif isinstance(record, Mapping):
            out.append(dict(record))
        else:
            raise ConfigError(
                f"cannot analyze trace record of type "
                f"{type(record).__name__}")
    return out


def interpolated_percentile(sorted_values: list[float], q: float) -> float:
    """Exact linear-interpolation percentile (``q`` in [0, 100])."""
    if not 0 <= q <= 100:
        raise ConfigError(f"q must be in [0, 100], got {q!r}")
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = (len(sorted_values) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return (sorted_values[low] * (1.0 - fraction)
            + sorted_values[high] * fraction)


def span_stats(records: Iterable) -> dict[str, dict]:
    """Per-name span duration statistics.

    Returns ``{name: {count, total, mean, min, max, p50, p95, p99}}``
    over *simulated* durations (``end_time - time``).
    """
    durations: dict[str, list[float]] = {}
    for record in _as_dicts(records):
        if record.get("kind") != "span":
            continue
        duration = float(record.get("end_time", record["time"])) \
            - float(record["time"])
        durations.setdefault(record["name"], []).append(duration)
    out = {}
    for name, values in sorted(durations.items()):
        values.sort()
        total = sum(values)
        out[name] = {
            "count": len(values),
            "total": total,
            "mean": total / len(values),
            "min": values[0],
            "max": values[-1],
            "p50": interpolated_percentile(values, 50),
            "p95": interpolated_percentile(values, 95),
            "p99": interpolated_percentile(values, 99),
        }
    return out


def event_counts(records: Iterable) -> dict[str, int]:
    """Point-event occurrence counts by name."""
    counts: dict[str, int] = {}
    for record in _as_dicts(records):
        if record.get("kind") == "event":
            counts[record["name"]] = counts.get(record["name"], 0) + 1
    return dict(sorted(counts.items()))


def segment_breakdown(records: Iterable,
                      percentiles: tuple[float, ...] = (50.0, 99.0),
                      ) -> dict[str, dict]:
    """Per-segment share of total latency for reqtrace request records.

    For each percentile ``q``, take the cohort of requests whose total
    latency is at or above the q-th percentile (the tail from that
    point) and report each segment's share of the cohort's summed
    latency — the numbers behind "p99 is 71% queue wait". The ``all``
    cohort covers every record.

    Returns ``{"all" | "p<q>": {count, total_us, shares}}`` where
    ``shares`` maps segment name to its fraction of the cohort total.
    With no request records the result is an explicit no-samples
    summary (an ``all`` cohort of count 0) rather than an error — zero
    sampled requests is a legitimate outcome of a tiny run or a high
    sampling interval. A single record forms its own cohort at every
    percentile.
    """
    requests = [r for r in _as_dicts(records)
                if r.get("kind") == "request" and "segments" in r]
    if not requests:
        return {"all": {"count": 0, "total_us": 0.0, "shares": {}}}

    def cohort_shares(cohort: list[dict]) -> dict:
        total = sum(float(r["total_us"]) for r in cohort)
        sums: dict[str, float] = {}
        for record in cohort:
            for name, value in record["segments"].items():
                sums[name] = sums.get(name, 0.0) + float(value)
        shares = {name: (sums[name] / total if total > 0 else 0.0)
                  for name in sorted(sums)}
        return {"count": len(cohort), "total_us": total, "shares": shares}

    totals = sorted(float(r["total_us"]) for r in requests)
    out = {"all": cohort_shares(requests)}
    for q in percentiles:
        threshold = interpolated_percentile(totals, q)
        cohort = [r for r in requests
                  if float(r["total_us"]) >= threshold]
        out[f"p{q:g}"] = cohort_shares(cohort)
    return out


def critical_path(records: Iterable) -> list[dict]:
    """The dominant nested-span chain under the longest root span.

    Starting from the longest root (parentless) span, repeatedly
    descend into the longest child. Each step reports the span's name,
    duration and *self time* (duration minus its children's total) —
    the classic "where was the time actually spent" decomposition.
    """
    spans = [r for r in _as_dicts(records) if r.get("kind") == "span"]
    if not spans:
        return []
    by_id = {s.get("span_id"): s for s in spans if s.get("span_id")
             is not None}
    children: dict[int | None, list[dict]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None and parent not in by_id:
            parent = None  # orphan (parent evicted from the ring)
        children.setdefault(parent, []).append(span)

    def duration(span: dict) -> float:
        return (float(span.get("end_time", span["time"]))
                - float(span["time"]))

    path: list[dict] = []
    node = max(children.get(None, []), key=duration, default=None)
    depth = 0
    while node is not None:
        kids = children.get(node.get("span_id"), [])
        child_total = sum(duration(k) for k in kids)
        path.append({
            "depth": depth,
            "name": node["name"],
            "start": float(node["time"]),
            "duration": duration(node),
            "self_time": max(0.0, duration(node) - child_total),
        })
        node = max(kids, key=duration, default=None)
        depth += 1
    return path


def analyze_trace(records: Iterable) -> dict:
    """Full trace summary (``repro.obs.trace_summary/v1``).

    ``records`` may be live :meth:`SimTimeTracer.records` output or
    dicts loaded via :func:`load_trace_jsonl`.
    """
    # Artifact headers (reqtrace files lead with one) carry run
    # metadata, not timing — drop them before aggregating.
    dicts = [r for r in _as_dicts(records) if r.get("kind") != "header"]
    spans = [r for r in dicts if r.get("kind") == "span"]
    events = [r for r in dicts if r.get("kind") == "event"]
    times = [float(r["time"]) for r in dicts]
    ends = [float(r.get("end_time", r["time"])) for r in dicts]
    return {
        "schema": TRACE_SUMMARY_SCHEMA,
        "record_count": len(dicts),
        "span_count": len(spans),
        "event_count": len(events),
        "time_range": ([min(times), max(ends)] if dicts else [0.0, 0.0]),
        "spans": span_stats(dicts),
        "events": event_counts(dicts),
        "critical_path": critical_path(dicts),
        "segments": segment_breakdown(dicts),
    }


def format_trace_summary(summary: dict) -> str:
    """Render a trace summary as a markdown fragment."""
    lines = [
        "### Trace summary",
        "",
        f"- records: {summary['record_count']} "
        f"({summary['span_count']} spans, "
        f"{summary['event_count']} events)",
        f"- sim-time range: [{summary['time_range'][0]:g}, "
        f"{summary['time_range'][1]:g}]",
        "",
    ]
    if summary["spans"]:
        lines += [
            "| span | count | total | mean | p50 | p95 | p99 |",
            "|---|---|---|---|---|---|---|",
        ]
        for name, stats in summary["spans"].items():
            lines.append(
                f"| `{name}` | {stats['count']} | {stats['total']:g} "
                f"| {stats['mean']:g} | {stats['p50']:g} "
                f"| {stats['p95']:g} | {stats['p99']:g} |")
        lines.append("")
    if summary["events"]:
        lines += ["| event | count |", "|---|---|"]
        for name, count in summary["events"].items():
            lines.append(f"| `{name}` | {count} |")
        lines.append("")
    segments = summary.get("segments")
    if segments and not any(cohort.get("count")
                            for cohort in segments.values()):
        lines.append("Latency attribution: no sampled request records.")
        lines.append("")
    elif segments:
        lines.append("Latency attribution (segment share of cohort "
                     "total latency):")
        lines.append("")
        names = sorted({name for cohort in segments.values()
                        for name in cohort["shares"]})
        header = "| cohort | requests | " + " | ".join(
            f"`{name}`" for name in names) + " |"
        lines += [header, "|---" * (len(names) + 2) + "|"]
        for cohort_name, cohort in segments.items():
            cells = " | ".join(f"{cohort['shares'].get(n, 0.0):.0%}"
                               for n in names)
            lines.append(f"| {cohort_name} | {cohort['count']} "
                         f"| {cells} |")
        lines.append("")
        tail = segments.get("p99")
        if tail and tail["shares"]:
            top = max(tail["shares"], key=tail["shares"].get)
            lines.append(f"p99 is {tail['shares'][top]:.0%} `{top}`.")
            lines.append("")
    if summary["critical_path"]:
        lines.append("Critical path (longest root, descending into the "
                     "longest child):")
        lines.append("")
        for step in summary["critical_path"]:
            indent = "  " * step["depth"]
            lines.append(
                f"- {indent}`{step['name']}` duration {step['duration']:g} "
                f"(self {step['self_time']:g})")
        lines.append("")
    return "\n".join(lines)

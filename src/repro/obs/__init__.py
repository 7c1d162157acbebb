"""Cross-layer observability: metrics registry + sim-time tracing.

``repro.obs`` is the one place every layer of the stack — flash/FTL/GC,
Salamander shrink/regen, the diFS recovery path, and the fleet
simulator — reports what it is doing, so a single run can be watched
(and regressed against) end to end. See docs/OBSERVABILITY.md for the
full metric catalog and usage examples.

The active registry, tracer and periodic sampler are fields of the run
context (:mod:`repro.context`), the no-op singletons from
:mod:`repro.obs.noop` by default. Instrumented code reads them once at
construction and keeps what it gets; with observability off every
child is a no-op and costs ~nothing. Build the objects and scope them
(typically once, at harness start, *before* building what should be
measured)::

    from repro import context
    from repro.obs import MetricsRegistry, SimTimeTracer

    registry, tracer = MetricsRegistry(), SimTimeTracer()
    tracer.set_clock(lambda: cluster.time)
    with context.scoped(metrics=registry, tracer=tracer):
        ...  # build devices / clusters / fleets, run the experiment
    registry.write_json("metrics.json")
    tracer.export_jsonl("trace.jsonl")

The CLI flags (``repro fleet --metrics-out ... --trace-out ...``) and
the benchmark harness do this for you. docs/OBSERVABILITY.md ("Run
context") is the binding rule.
"""

from __future__ import annotations

from repro import context
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    quantile_from_cumulative,
    quantile_from_sample,
    validate_metrics_document,
)
from repro.obs.noop import (
    NULL_METRICS,
    NULL_TIMESERIES,
    NULL_TRACER,
    NullMetricsRegistry,
    NullTimeseriesSampler,
    NullTracer,
)
from repro.obs.promtext import render_prometheus
from repro.obs.smart import SMART_FIELDS, SmartField, smart_field
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA,
    SeriesBuffer,
    TimeseriesSampler,
    document_series_names,
    load_timeseries,
    series_from_document,
    validate_timeseries_document,
)
from repro.obs.trace import EventRecord, SimTimeTracer, SpanRecord


def metrics_enabled() -> bool:
    return context.current().metrics is not NULL_METRICS


def tracing_enabled() -> bool:
    return context.current().tracer is not NULL_TRACER


def timeseries_enabled() -> bool:
    return context.current().timeseries is not NULL_TIMESERIES


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EventRecord",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA",
    "MetricFamily",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NullTimeseriesSampler",
    "NullTracer",
    "SMART_FIELDS",
    "SeriesBuffer",
    "SimTimeTracer",
    "SmartField",
    "SpanRecord",
    "TIMESERIES_SCHEMA",
    "TimeseriesSampler",
    "document_series_names",
    "load_timeseries",
    "metrics_enabled",
    "quantile_from_cumulative",
    "quantile_from_sample",
    "render_prometheus",
    "series_from_document",
    "smart_field",
    "timeseries_enabled",
    "tracing_enabled",
    "validate_metrics_document",
    "validate_timeseries_document",
]

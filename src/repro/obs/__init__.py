"""Cross-layer observability: metrics registry + sim-time tracing.

``repro.obs`` is the one place every layer of the stack — flash/FTL/GC,
Salamander shrink/regen, the diFS recovery path, and the fleet
simulator — reports what it is doing, so a single run can be watched
(and regressed against) end to end. See docs/OBSERVABILITY.md for the
full metric catalog and usage examples.

Two guarded module-level singletons hold the state:

* :func:`metrics` — the active :class:`MetricsRegistry`, or a shared
  no-op registry when disabled (the default). Instrumented code calls
  ``obs.metrics().counter(...)`` at construction time and keeps the
  returned child; with observability off those children are the no-op
  singletons from :mod:`repro.obs.noop` and cost ~nothing.
* :func:`tracer` — the active :class:`SimTimeTracer` (or no-op).

Enable explicitly (typically once, at harness start)::

    from repro import obs

    registry = obs.enable_metrics()
    tracer = obs.enable_tracing(clock=lambda: cluster.time)
    ...  # build devices / clusters / fleets, run the experiment
    registry.write_json("metrics.json")
    tracer.export_jsonl("trace.jsonl")
    obs.disable()

Instrumentation binds at *construction* time: enable observability
before creating the objects you want measured. The CLI flags
(``repro fleet --metrics-out ... --trace-out ...``) and the benchmark
harness do this for you.
"""

from __future__ import annotations

from contextlib import contextmanager

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

_metrics: MetricsRegistry | NullMetricsRegistry = NULL_METRICS
_tracer: SimTimeTracer | NullTracer = NULL_TRACER
_timeseries: TimeseriesSampler | NullTimeseriesSampler = NULL_TIMESERIES


def metrics() -> MetricsRegistry | NullMetricsRegistry:
    """The active metrics registry (no-op unless enabled)."""
    return _metrics


def tracer() -> SimTimeTracer | NullTracer:
    """The active sim-time tracer (no-op unless enabled)."""
    return _tracer


def timeseries() -> TimeseriesSampler | NullTimeseriesSampler:
    """The active periodic sampler (no-op unless enabled)."""
    return _timeseries


def metrics_enabled() -> bool:
    return _metrics is not NULL_METRICS


def tracing_enabled() -> bool:
    return _tracer is not NULL_TRACER


def timeseries_enabled() -> bool:
    return _timeseries is not NULL_TIMESERIES


def enable_metrics(registry: MetricsRegistry | None = None,
                   ) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the active registry."""
    global _metrics
    if registry is None:
        registry = _metrics if metrics_enabled() else MetricsRegistry()
    _metrics = registry
    return registry


def enable_tracing(trace: SimTimeTracer | None = None,
                   clock=None, capacity: int = 65536) -> SimTimeTracer:
    """Install ``trace`` (or a fresh tracer) as the active tracer."""
    global _tracer
    if trace is None:
        trace = (_tracer if tracing_enabled()
                 else SimTimeTracer(capacity=capacity))
    if clock is not None:
        trace.set_clock(clock)
    _tracer = trace
    return trace


def enable_timeseries(sampler: TimeseriesSampler | None = None,
                      cadence: float = 0.0,
                      capacity: int | None = None,
                      registry: MetricsRegistry | None = None,
                      ) -> TimeseriesSampler:
    """Install ``sampler`` (or a fresh one) as the active sampler.

    A fresh sampler snapshots ``registry`` — defaulting to the active
    metrics registry when metrics are enabled — plus any probes the
    instrumented layers register. Like the other singletons, enable it
    *before* the simulation starts so every step is offered for
    sampling.
    """
    global _timeseries
    if sampler is None:
        if timeseries_enabled():
            sampler = _timeseries
        else:
            if registry is None and metrics_enabled():
                registry = _metrics
            kwargs = {} if capacity is None else {"capacity": capacity}
            sampler = TimeseriesSampler(registry=registry, cadence=cadence,
                                        **kwargs)
    _timeseries = sampler
    return sampler


def disable() -> None:
    """Return every singleton to its no-op default."""
    global _metrics, _tracer, _timeseries
    _metrics = NULL_METRICS
    _tracer = NULL_TRACER
    _timeseries = NULL_TIMESERIES


@contextmanager
def enabled(metrics_registry: MetricsRegistry | None = None,
            trace: SimTimeTracer | None = None, clock=None,
            timeseries_sampler: TimeseriesSampler | None = None):
    """Scope-enable observability; restores the previous state on exit.

    Yields ``(registry, tracer)``. Used by tests and short harness
    sections that should not leak global state. Pass
    ``timeseries_sampler`` to additionally install a periodic sampler
    for the scope (off by default to keep existing callers unchanged).
    """
    global _metrics, _tracer, _timeseries
    previous = (_metrics, _tracer, _timeseries)
    try:
        registry = enable_metrics(metrics_registry or MetricsRegistry())
        span_tracer = enable_tracing(trace or SimTimeTracer(), clock=clock)
        if timeseries_sampler is not None:
            if timeseries_sampler.registry is None:
                timeseries_sampler.registry = registry
            enable_timeseries(timeseries_sampler)
        yield registry, span_tracer
    finally:
        _metrics, _tracer, _timeseries = previous


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
    "disable",
    "document_series_names",
    "enable_metrics",
    "enable_timeseries",
    "enable_tracing",
    "enabled",
    "load_timeseries",
    "metrics",
    "metrics_enabled",
    "quantile_from_cumulative",
    "quantile_from_sample",
    "render_prometheus",
    "series_from_document",
    "smart_field",
    "timeseries",
    "timeseries_enabled",
    "tracer",
    "tracing_enabled",
    "validate_metrics_document",
    "validate_timeseries_document",
]

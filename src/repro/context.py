"""One run context: the cross-layer state every layer binds.

A run's cross-cutting machinery — the metrics registry, the sim-time
tracer, the periodic timeseries sampler, the fault injector, the request
tracer and the wear ledger — is one frozen :class:`RunContext`. Each
instrumented constructor (chip, FTL, GC policy, device queue, cluster,
recovery manager, Salamander device, fleet assembler, instrument
factories) reads :func:`current` once and keeps the fields it needs, so
nothing is looked up per operation: with the defaults the hooks are the
no-op objects of :mod:`repro.obs.noop` or a single ``is None`` test.

Callers build the objects and scope them, *before* constructing what
should see them::

    from repro import context
    from repro.faults import FaultInjector
    from repro.obs.endurance import EnduranceLedger

    with context.scoped(faults=FaultInjector(plan),
                        endurance=EnduranceLedger(pec_limit=12.0)) as ctx:
        device = SalamanderSSD(...)     # binds both
        ...
    print(ctx.faults.summary())

:func:`scoped` restores the previous context on exit, including on an
exception; :func:`reset` returns to the defaults (every pool worker runs
it once at start, so nothing a parent scoped leaks into a child).
docs/OBSERVABILITY.md ("Run context") is the contract.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

from repro.obs.noop import NULL_METRICS, NULL_TIMESERIES, NULL_TRACER

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.obs.endurance import EnduranceLedger
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.noop import (
        NullMetricsRegistry,
        NullTimeseriesSampler,
        NullTracer,
    )
    from repro.obs.reqtrace import ReqTracer
    from repro.obs.timeseries import TimeseriesSampler
    from repro.obs.trace import SimTimeTracer


@dataclass(frozen=True)
class RunContext:
    """What a run's objects bind at construction (defaults: all off)."""

    metrics: MetricsRegistry | NullMetricsRegistry = NULL_METRICS
    tracer: SimTimeTracer | NullTracer = NULL_TRACER
    timeseries: TimeseriesSampler | NullTimeseriesSampler = NULL_TIMESERIES
    faults: FaultInjector | None = None
    reqtrace: ReqTracer | None = None
    endurance: EnduranceLedger | None = None


_current = RunContext()


def current() -> RunContext:
    """The active context; read it once per constructor, never per op."""
    return _current


@contextmanager
def scoped(**fields) -> Iterator[RunContext]:
    """Replace ``fields`` of the active context for the ``with`` body.

    Yields the new context; the previous one is restored on exit, also
    when the body raises.
    """
    global _current
    previous = _current
    _current = replace(previous, **fields)
    try:
        yield _current
    finally:
        _current = previous


def reset() -> None:
    """Return to the all-off default context."""
    global _current
    _current = RunContext()


__all__ = ["RunContext", "current", "reset", "scoped"]

"""Deterministic, seed-driven fault injection for the whole stack.

A :class:`FaultInjector` for one :class:`FaultPlan` rides in the run
context (:mod:`repro.context`): every layer binds it *at construction*
and consults it only when non-None, so the hooks are a single attribute
test on the hot path and provably free when no plan is scoped. See
docs/OBSERVABILITY.md ("Run context") for the binding rule.

Usage (scope the injector **before** building devices)::

    from repro import context
    from repro.faults import FaultInjector, FaultPlan, FaultSpec

    plan = FaultPlan((FaultSpec("gc.pre_erase", "crash", when=3),))
    with context.scoped(faults=FaultInjector(plan)) as ctx:
        device = SalamanderSSD(...)   # binds the injector
        ...                           # run; PowerLossError fires at hit 3
    print(ctx.faults.summary())

The crash-and-remount driver in :mod:`repro.faults.harness` catches the
resulting :class:`~repro.errors.PowerLossError` and rebuilds the device
from durable state, which is what the crash-consistency fuzz harness
(tests/faults/) loops on. See docs/FAULTS.md for the fault taxonomy,
the injection-site registry and the ``repro.faults/v1`` plan schema.
"""

from __future__ import annotations

from repro import context
from repro.faults.injector import FaultInjector, FiredFault
from repro.faults.plan import (
    CRASH_SITES,
    FAULTS_SCHEMA,
    SITES,
    FaultPlan,
    FaultSpec,
    validate_fault_document,
)


def enabled() -> bool:
    return context.current().faults is not None


__all__ = [
    "CRASH_SITES",
    "FAULTS_SCHEMA",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    "SITES",
    "enabled",
    "validate_fault_document",
]

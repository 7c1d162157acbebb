"""The run context: one frozen state, read once per constructor.

Three contracts (docs/OBSERVABILITY.md, "Run context"):

* **Zero cost off** — with the default context every layer binds the
  ``None`` / null objects, so a disabled hook is one identity test or a
  no-op call.
* **Construction-time binding** — a layer reads the context once, when
  it is built: an object built before a scope never sees it, one built
  inside keeps what it bound after the scope exits. Nothing is looked
  up per operation.
* **Scopes restore** — ``scoped`` nests, restores the previous context
  on exit and on an exception, and pool workers start from ``reset``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import context, faults, obs
from repro.context import RunContext
from repro.difs.cluster import Cluster, ClusterConfig
from repro.faults import FaultInjector, FaultPlan
from repro.flash.geometry import FlashGeometry
from repro.io import DeviceQueue
from repro.io.probe import ProbeConfig, run_probe
from repro.obs import MetricsRegistry, SimTimeTracer, TimeseriesSampler
from repro.obs import endurance, reqtrace
from repro.obs.endurance import EnduranceLedger
from repro.obs.instruments import fault_instruments, fleet_instruments
from repro.obs.noop import (
    NULL_CHILD,
    NULL_FAMILY,
    NULL_METRICS,
    NULL_TIMESERIES,
    NULL_TRACER,
)
from repro.obs.reqtrace import ReqTracer
from repro.obs.slo import SLOEngine, SLOObjective
from repro.sim.fleet import (
    FleetConfig,
    FleetRules,
    resolve_injector,
    sample_schedule,
)
from repro.sim.parallel import parallel_map


def every_field() -> dict:
    """One live object per field: what a fully instrumented run scopes."""
    registry = MetricsRegistry()
    return {"metrics": registry, "tracer": SimTimeTracer(),
            "timeseries": TimeseriesSampler(registry=registry),
            "faults": FaultInjector(FaultPlan.random(1)),
            "reqtrace": ReqTracer(seed=1),
            "endurance": EnduranceLedger(pec_limit=12.0)}


def stack(make_salamander) -> dict:
    """Every binding layer, built now: chip, FTL, GC policy, Salamander
    device, queue, cluster and recovery manager."""
    device = make_salamander("regen")
    cluster = Cluster(ClusterConfig(replication=2, chunk_lbas=4), seed=1)
    return {"device": device, "chip": device.chip, "gc": device._gc,
            "queue": DeviceQueue(device), "cluster": cluster,
            "recovery": cluster.recovery}


def bindings(layers: dict) -> dict:
    """What each layer bound, as (layer, field) -> object."""
    device, queue = layers["device"], layers["queue"]
    return {
        ("chip", "faults"): layers["chip"]._faults,
        ("chip", "reqtrace"): layers["chip"]._reqtrace,
        ("chip", "endurance"): layers["chip"]._endurance,
        ("ftl", "faults"): device._faults,
        ("ftl", "reqtrace"): device._reqtrace,
        ("ftl", "endurance"): device._endurance,
        ("gc", "faults"): layers["gc"]._faults,
        ("salamander", "metrics"): device._metrics,
        ("salamander", "tracer"): device._tracer,
        ("queue", "reqtrace"): queue._reqtrace,
        ("queue", "observed"): queue._observed,
        ("cluster", "faults"): layers["cluster"]._faults,
        ("recovery", "faults"): layers["recovery"]._faults,
        ("recovery", "tracer"): layers["recovery"]._tracer,
    }


class TestDefault:
    def test_default_is_all_off(self):
        ctx = context.current()
        assert ctx == RunContext()
        assert (ctx.metrics, ctx.tracer, ctx.timeseries) == (
            NULL_METRICS, NULL_TRACER, NULL_TIMESERIES)
        assert ctx.faults is ctx.reqtrace is ctx.endurance is None
        assert not any((obs.metrics_enabled(), obs.tracing_enabled(),
                        obs.timeseries_enabled(), faults.enabled(),
                        reqtrace.enabled(), endurance.enabled()))

    def test_null_objects_record_nothing(self):
        ctx = context.current()
        ctx.metrics.counter("whatever_total").inc()
        assert ctx.metrics.to_dict()["metrics"] == []
        assert ctx.metrics.to_prometheus() == ""
        with ctx.tracer.span("ignored"):
            ctx.tracer.event("ignored")
        assert ctx.tracer.records() == []
        ctx.timeseries.record("x", 0.0, 1.0)
        assert not ctx.timeseries.maybe_sample(1.0)
        assert len(ctx.timeseries) == 0

    def test_context_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            context.current().faults = FaultInjector(FaultPlan.random(1))


class TestZeroCost:
    def test_every_layer_binds_the_defaults(self, make_salamander):
        layers = stack(make_salamander)
        bound = bindings(layers)
        assert bound.pop(("recovery", "tracer")) is NULL_TRACER
        assert bound.pop(("queue", "observed")) is False
        assert all(value is None for value in bound.values()), bound
        assert layers["queue"]._rt_sampler is None
        # The instrument factories hand out null children and families.
        assert layers["device"]._instr.host_writes is NULL_CHILD
        assert layers["device"]._sal_instr.advertised_bytes is NULL_CHILD
        assert layers["gc"]._instr.picks is NULL_CHILD
        assert layers["queue"]._instr.inflight is NULL_CHILD
        assert layers["cluster"]._instr.live_volumes is NULL_FAMILY
        assert fleet_instruments("regen").capacity_bytes is NULL_CHILD
        assert fault_instruments().injected is NULL_FAMILY
        assert SLOEngine([SLOObjective(name="p99",
                                       threshold_us=1.0)])._instr is None

    def test_fleet_reads_the_defaults(self):
        config = FleetConfig(devices=4, horizon_days=100, step_days=20,
                             geometry=FlashGeometry(blocks=16,
                                                    fpages_per_block=16))
        assert resolve_injector(None) is None
        assert not any(sample_schedule(FleetRules(config, "regen")))

    def test_probe_scopes_its_own_and_hands_back(self):
        result = run_probe("baseline", seed=11, config=ProbeConfig(
            n_requests=40, every=4, age_passes=1))
        assert result["records"] and result["endurance"]
        assert context.current() == RunContext()


class TestBinding:
    def test_binding_happens_at_construction_not_per_call(
            self, make_salamander):
        before = stack(make_salamander)
        off = bindings(before)
        fields = every_field()
        with context.scoped(**fields) as ctx:
            assert ctx is context.current()
            during = stack(make_salamander)
        # Built before the scope: never saw it. Built inside: keeps
        # what it bound after the scope is gone.
        assert bindings(before) == off
        assert context.current() == RunContext()
        injector, tracer = fields["faults"], fields["tracer"]
        requests, ledger = fields["reqtrace"], fields["endurance"]
        expected = {
            ("chip", "faults"): injector,
            ("chip", "reqtrace"): requests,
            ("chip", "endurance"): ledger.devices["wear0"],
            ("ftl", "faults"): injector,
            ("ftl", "reqtrace"): requests,
            ("ftl", "endurance"): ledger,
            ("gc", "faults"): injector,
            ("salamander", "metrics"): fields["metrics"],
            ("salamander", "tracer"): tracer,
            ("queue", "reqtrace"): requests,
            ("queue", "observed"): True,
            ("cluster", "faults"): injector,
            ("recovery", "faults"): injector,
            ("recovery", "tracer"): tracer,
        }
        bound = bindings(during)
        assert set(bound) == set(expected)
        for key, value in expected.items():
            assert bound[key] is value, key
        assert during["queue"]._rt_sampler is not None
        assert before["queue"]._rt_sampler is None

    def test_chips_register_with_the_scoped_ledger(self, make_salamander):
        ledger = EnduranceLedger()
        with context.scoped(endurance=ledger):
            device = make_salamander()
        assert device.chip._endurance is ledger.devices["wear0"]
        assert device._endurance is ledger


class TestScopes:
    def test_scoped_yields_and_restores(self):
        fields = every_field()
        with context.scoped(**fields) as ctx:
            assert context.current() is ctx
            for name, value in fields.items():
                assert getattr(ctx, name) is value, name
            assert all((obs.metrics_enabled(), obs.tracing_enabled(),
                        obs.timeseries_enabled(), faults.enabled(),
                        reqtrace.enabled(), endurance.enabled()))
        assert context.current() == RunContext()

    def test_scopes_nest(self):
        outer, inner = EnduranceLedger(), EnduranceLedger()
        tracer = ReqTracer(seed=2)
        with context.scoped(endurance=outer, reqtrace=tracer):
            with context.scoped(endurance=inner):
                assert context.current().endurance is inner
                assert context.current().reqtrace is tracer
            assert context.current().endurance is outer
        assert context.current().endurance is None

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with context.scoped(**every_field()):
                raise RuntimeError("boom")
        assert context.current() == RunContext()

    def test_unknown_field_is_refused(self):
        with pytest.raises(TypeError):
            with context.scoped(slo=object()):
                pass
        assert context.current() == RunContext()

    def test_reset_returns_to_the_default(self):
        with context.scoped(**every_field()):
            context.reset()
            assert context.current() == RunContext()
        assert context.current() == RunContext()


def _sees_default(_: int) -> bool:
    return context.current() == RunContext()


class TestWorkers:
    def test_pool_workers_start_from_the_default(self):
        with context.scoped(**every_field()):
            seen = parallel_map(_sees_default, range(4), jobs=2)
            # In-process (jobs=1) the caller's context stays in force.
            assert parallel_map(_sees_default, range(2), jobs=1) == [
                False, False]
        assert seen == [True] * 4

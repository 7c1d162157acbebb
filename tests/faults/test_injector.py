"""FaultInjector dispatch, windows, run-context lifecycle, metrics."""

import pytest

from repro import context, faults
from repro.errors import PowerLossError
from repro.obs import MetricsRegistry
from repro.faults import FaultInjector, FaultPlan, FaultSpec


def plan_of(*specs, seed=None):
    return FaultPlan(events=tuple(specs), seed=seed)


class TestDispatch:
    def test_hit_counter_is_one_based(self):
        injector = FaultInjector(plan_of(
            FaultSpec(site="chip.program", fault="fail", when=3)))
        assert injector.check("chip.program") is None
        assert injector.check("chip.program") is None
        assert injector.check("chip.program") is not None
        assert injector.check("chip.program") is None
        assert injector.hits("chip.program") == 4

    def test_count_widens_window(self):
        injector = FaultInjector(plan_of(
            FaultSpec(site="chip.read", fault="uncorrectable",
                      when=2, count=3)))
        fired = [injector.check("chip.read") is not None
                 for _ in range(6)]
        assert fired == [False, True, True, True, False, False]

    def test_counters_are_per_site(self):
        injector = FaultInjector(plan_of(
            FaultSpec(site="chip.erase", fault="fail", when=1)))
        injector.check("chip.program")
        injector.check("chip.program")
        assert injector.check("chip.erase") is not None
        assert injector.hits("chip.program") == 2
        assert injector.hits("chip.erase") == 1

    def test_match_filters_but_still_counts(self):
        injector = FaultInjector(plan_of(
            FaultSpec(site="chip.read", fault="corrupt", when=2,
                      match={"fpage": 9})))
        # Hit 1: wrong page. Hit 2: right page -> fires.
        assert injector.check("chip.read", fpage=5) is None
        assert injector.check("chip.read", fpage=9) is not None
        # The window has passed: hit 3 on the matching page stays quiet.
        assert injector.check("chip.read", fpage=9) is None

    def test_nonmatching_hit_inside_window_does_not_fire(self):
        injector = FaultInjector(plan_of(
            FaultSpec(site="chip.read", fault="corrupt", when=1,
                      match={"fpage": 9})))
        assert injector.check("chip.read", fpage=5) is None

    def test_first_matching_spec_wins(self):
        injector = FaultInjector(plan_of(
            FaultSpec(site="difs.recovery.event", fault="delay", when=1),
            FaultSpec(site="difs.recovery.event", fault="duplicate",
                      when=1)))
        spec = injector.check("difs.recovery.event", kind="chunk", id="c0")
        assert spec.fault == "delay"

    def test_fired_log_records_context(self):
        injector = FaultInjector(plan_of(
            FaultSpec(site="chip.program", fault="fail", when=1)))
        injector.check("chip.program", fpage=11, block=2)
        assert len(injector.fired) == 1
        record = injector.fired[0]
        assert record.site == "chip.program"
        assert record.fault == "fail"
        assert record.hit == 1
        assert record.context == {"fpage": 11, "block": 2}

    def test_crash_if_raises_with_site(self):
        injector = FaultInjector(plan_of(
            FaultSpec(site="gc.pre_erase", fault="crash", when=2)))
        injector.crash_if("gc.pre_erase", block=4)
        with pytest.raises(PowerLossError) as excinfo:
            injector.crash_if("gc.pre_erase", block=4)
        assert excinfo.value.site == "gc.pre_erase"

    def test_crash_if_ignores_non_crash_faults(self):
        injector = FaultInjector(plan_of(
            FaultSpec(site="chip.program", fault="fail", when=1)))
        injector.crash_if("chip.program")  # returns quietly

    def test_summary_tallies(self):
        injector = FaultInjector(plan_of(
            FaultSpec(site="chip.program", fault="fail", when=1, count=2)))
        for _ in range(3):
            injector.check("chip.program")
        summary = injector.summary()
        assert summary["hits"] == {"chip.program": 3}
        assert summary["fired"] == {"chip.program:fail": 2}
        assert summary["total_fired"] == 2

    def test_deterministic_replay(self):
        plan = FaultPlan.random(77, n_events=5)
        trace_a, trace_b = [], []
        for trace in (trace_a, trace_b):
            injector = FaultInjector(plan)
            for i in range(300):
                site = list(plan.sites())[i % len(plan.sites())]
                spec = injector.check(site, i=i)
                trace.append(None if spec is None else spec.fault)
        assert trace_a == trace_b


class TestNodeOutages:
    def test_outage_window_measured_in_polls(self):
        injector = FaultInjector(plan_of(
            FaultSpec(site="difs.node", fault="outage", when=2, count=2,
                      match={"node": "n1"})))
        injector.note_poll()  # poll 1: window not open
        assert not injector.node_down("n1")
        injector.note_poll()  # poll 2: down
        assert injector.node_down("n1")
        assert not injector.node_down("n2")
        injector.note_poll()  # poll 3: still down
        assert injector.node_down("n1")
        injector.note_poll()  # poll 4: recovered
        assert not injector.node_down("n1")

    def test_queries_do_not_advance_the_clock(self):
        injector = FaultInjector(plan_of(
            FaultSpec(site="difs.node", fault="outage", when=1,
                      match={"node": "n1"})))
        injector.note_poll()
        for _ in range(50):  # query frequency must not end the outage
            assert injector.node_down("n1")

    def test_matchless_outage_downs_every_node(self):
        injector = FaultInjector(plan_of(
            FaultSpec(site="difs.node", fault="outage", when=1)))
        injector.note_poll()
        assert injector.node_down("n1")
        assert injector.node_down("anything")


class TestSingleton:
    """The injector's lifecycle: it lives in the run context's
    ``faults`` field, and ``faults.enabled()`` reads it."""

    def test_disabled_by_default(self):
        assert context.current().faults is None
        assert not faults.enabled()

    def test_install_uninstall(self):
        injector = FaultInjector(FaultPlan.random(1))
        with context.scoped(faults=injector):
            assert context.current().faults is injector
            assert faults.enabled()
        assert context.current().faults is None
        assert not faults.enabled()

    def test_install_accepts_injector(self):
        mine = FaultInjector(FaultPlan.random(2))
        with context.scoped(faults=mine) as ctx:
            assert ctx.faults is mine

    def test_installed_restores_previous(self):
        outer = FaultInjector(FaultPlan.random(3))
        with context.scoped(faults=outer):
            inner = FaultInjector(FaultPlan.random(4))
            with context.scoped(faults=inner):
                assert context.current().faults is inner
                assert inner is not outer
            assert context.current().faults is outer
        assert context.current().faults is None


class TestMetrics:
    def test_fault_counters_exported(self):
        registry = MetricsRegistry()
        with context.scoped(metrics=registry):
            injector = FaultInjector(plan_of(
                FaultSpec(site="chip.program", fault="fail", when=1),
                FaultSpec(site="ftl.write", fault="crash", when=1)))
        injector.check("chip.program")
        with pytest.raises(PowerLossError):
            injector.crash_if("ftl.write")
        injector.record_degraded("retire_program_fail")
        document = registry.to_dict()
        flat = {(family["name"], tuple(sorted(
                    sample["labels"].items()))): sample["value"]
                for family in document["metrics"]
                for sample in family["samples"]}
        assert flat[("repro_faults_injected_total",
                     (("fault", "fail"), ("site", "chip.program")))] == 1
        assert flat[("repro_faults_injected_total",
                     (("fault", "crash"), ("site", "ftl.write")))] == 1
        assert flat[("repro_faults_crashes_total",
                     (("site", "ftl.write"),))] == 1
        assert flat[("repro_faults_degraded_total",
                     (("action", "retire_program_fail"),))] == 1

"""Disabled injection must cost nothing: one bound None, one `is` check.

Every layer binds the run context's injector once at construction; with
no plan scoped that binding is ``None`` and the hot paths reduce to a
single identity test. These tests pin the binding discipline so a
future refactor cannot quietly re-introduce per-op context lookups
(``tests/test_context.py`` pins it for every field; the perf harness
guards the wall-clock side; see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from repro import context, faults
from repro.difs.cluster import Cluster, ClusterConfig
from repro.faults import FaultInjector, FaultPlan
from repro.ssd.ftl import PageMappedFTL


class TestDisabledBindings:
    def test_nothing_installed_by_default(self):
        assert context.current().faults is None
        assert not faults.enabled()

    def test_every_layer_binds_none_when_disabled(self, make_chip,
                                                  ftl_config, make_baseline,
                                                  make_salamander):
        chip = make_chip()
        ftl = PageMappedFTL.for_chip(make_chip(), ftl_config)
        baseline = make_baseline()
        salamander = make_salamander()
        cluster = Cluster(ClusterConfig(replication=2, chunk_lbas=4),
                          seed=1)
        for layer in (chip, ftl, baseline, salamander, salamander.chip,
                      cluster, cluster.recovery):
            assert layer._faults is None, type(layer).__name__

    def test_binding_happens_at_construction_not_per_call(self, make_chip,
                                                          ftl_config):
        # A device built *before* the scope never sees the plan
        # (documented contract: scope first, construct second)...
        before = PageMappedFTL.for_chip(make_chip(), ftl_config)
        with context.scoped(faults=FaultInjector(FaultPlan.random(1))):
            assert before._faults is None
            # ...and one built inside keeps its injector after the scope
            # exits (it never re-reads the context).
            during = PageMappedFTL.for_chip(make_chip(), ftl_config)
            bound = during._faults
            assert bound is context.current().faults
        assert during._faults is bound
        assert context.current().faults is None

    def test_disabled_device_behaves_identically(self, make_chip,
                                                 ftl_config):
        # Behavioural zero-cost: op-for-op identical results with the
        # subsystem absent vs merely disabled is what lets the perf
        # floors in benchmarks/ apply unchanged.
        outputs = []
        for _ in range(2):
            device = PageMappedFTL.for_chip(
                make_chip(seed=5, inject_errors=False), ftl_config)
            for lba in range(32):
                device.write(lba % 12, f"z{lba}".encode())
            device.flush()
            device.background_tick()
            outputs.append([device.read(lba) for lba in range(12)])
        assert outputs[0] == outputs[1]
        assert context.current().faults is None

"""The package's public API surface is importable and coherent."""

import importlib
import importlib.util
import pkgutil

import pytest

import repro

#: Exports the PR 21 reachability audit retired, by package.
RETIRED = {
    "repro.sim": ("Engine", "SimClock"),
    "repro.difs": ("rebalance", "RebalanceReport"),
    "repro.workloads": ("DWPDSchedule",),
    "repro.models": ("recovery_traffic_summary",),
    "repro.obs": ("parse_prometheus_text",),
    "repro.ssd": ("CostBenefitGC",),
}

#: The install/bind singletons the run context replaced, by module. A
#: name may survive as a submodule (``repro.obs.metrics``), never as
#: something to call.
RETIRED_SINGLETONS = {
    "repro.faults": ("install", "uninstall", "installed", "injector"),
    "repro.obs": ("enable_metrics", "enable_tracing", "enable_timeseries",
                  "disable", "enabled", "metrics", "tracer", "timeseries"),
    "repro.obs.reqtrace": ("install", "uninstall", "installed", "tracer"),
    "repro.obs.endurance": ("install", "uninstall", "installed", "ledger"),
    "repro.obs.slo": ("install", "uninstall", "installed", "engine",
                      "enabled"),
}

#: The null objects ``None`` replaced as the run context's one "off".
RETIRED_NULL_OBJECTS = ("NULL_METRICS", "NULL_TRACER", "NULL_TIMESERIES",
                        "NullChild", "NullMetricsRegistry", "NullTracer",
                        "NullTimeseriesSampler")


class TestPublicAPI:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_every_subpackage_export_resolves(self):
        packages = [info.name for info in pkgutil.iter_modules(
            repro.__path__, "repro.") if info.ispkg]
        assert set(RETIRED) <= set(packages)
        for package in packages:
            module = importlib.import_module(package)
            for name in module.__all__:
                assert hasattr(module, name), f"{package}.{name}"
            for name in RETIRED.get(package, ()):
                assert not hasattr(module, name), f"{package}.{name}"

    def test_run_context_replaced_the_singletons(self):
        import repro.context

        assert sorted(repro.context.__all__) == [
            "RunContext", "current", "reset", "scoped"]
        for module_name, names in RETIRED_SINGLETONS.items():
            module = importlib.import_module(module_name)
            for name in names:
                assert name not in module.__all__, f"{module_name}.{name}"
                assert not callable(getattr(module, name, None)), (
                    f"{module_name}.{name}")

    def test_none_replaced_the_null_objects(self):
        import repro.context
        import repro.obs

        assert importlib.util.find_spec("repro.obs.noop") is None
        for module in (repro.obs, repro.context):
            for name in RETIRED_NULL_OBJECTS:
                assert not hasattr(module, name), f"{module}.{name}"

    def test_forget_hardware_is_exported(self):
        import repro.sim
        from repro.sim import fleet

        assert "forget_hardware" in repro.sim.__all__
        assert repro.sim.forget_hardware is fleet.forget_hardware
        assert fleet.forget_hardware() is None      # no argument, no option

    def test_version(self):
        assert repro.__version__ == "0.1.0"

    def test_quickstart_from_docstring(self):
        # The module docstring's example must actually work.
        from repro import SalamanderConfig, SalamanderSSD
        from repro import FlashGeometry, FTLConfig

        geometry = FlashGeometry(blocks=16, fpages_per_block=8)
        config = SalamanderConfig(
            mode="regen", msize_lbas=32, headroom_fraction=0.25,
            ftl=FTLConfig(overprovision=0.25, buffer_opages=8))
        device = SalamanderSSD.create(geometry, config, seed=0)
        device.write(0, 0, b"hello")
        assert device.read(0, 0).rstrip(b"\0") == b"hello"

    def test_paper_constants_exposed(self):
        from repro import CarbonParams, TCOParams, carbon_savings, tco_savings
        assert 0.0 < carbon_savings(CarbonParams()) < 0.1
        assert 0.1 < tco_savings(TCOParams()) < 0.2

    def test_fig2_helper_exposed(self):
        points = repro.tiredness_tradeoff()
        assert points[1].pec_gain == pytest.approx(0.5, abs=1e-6)

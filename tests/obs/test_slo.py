"""SLO engine: config validation, windowing, filters, burn rates.

Windows live on the simulated clock (``end_us``), so eviction and
percentiles are deterministic; the offline evaluator must agree with a
live engine fed the same completions in the same order.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import context
from repro.context import RunContext
from repro.errors import ConfigError
from repro.io import DeviceQueue
from repro.obs import MetricsRegistry, slo
from repro.obs.slo import (
    SLO_REPORT_SCHEMA,
    SLO_SCHEMA,
    SLOEngine,
    SLOObjective,
    WINDOW_CAPACITY,
    evaluate_records,
    format_slo_report,
    load_slo_config,
    objective_from_dict,
    slo_failed,
    validate_slo_document,
)
from repro.workloads.engine import EngineConfig, run_traffic


def latency_objective(**overrides) -> SLOObjective:
    base = dict(name="read-p99", kind="latency", op="read",
                percentile=99.0, threshold_us=100.0, window_us=1000.0)
    base.update(overrides)
    return SLOObjective(**base)


def observe_n(engine: SLOEngine, latencies, op="read", stream=0,
              device_kind="dev", spacing_us=1.0, missed=False) -> None:
    for index, latency in enumerate(latencies):
        engine.observe(end_us=(index + 1) * spacing_us,
                       latency_us=latency, op=op, stream=stream,
                       device_kind=device_kind, deadline_missed=missed)


class TestObjectiveValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            SLOObjective(name="x", kind="availability")

    def test_latency_needs_positive_threshold(self):
        with pytest.raises(ConfigError, match="threshold_us"):
            SLOObjective(name="x", kind="latency", threshold_us=0.0)

    def test_percentile_bounds(self):
        with pytest.raises(ConfigError, match="percentile"):
            latency_objective(percentile=100.0)

    def test_miss_rate_ratio_bounds(self):
        with pytest.raises(ConfigError, match="max_ratio"):
            SLOObjective(name="x", kind="deadline_miss_rate",
                         max_ratio=1.5)

    def test_window_must_be_positive(self):
        with pytest.raises(ConfigError, match="window_us"):
            latency_objective(window_us=0.0)

    def test_budget_defaults_to_percentile_complement(self):
        assert latency_objective(percentile=99.0).budget == \
            pytest.approx(0.01)
        assert latency_objective(percentile=95.0).budget == \
            pytest.approx(0.05)

    def test_miss_rate_budget_defaults_to_max_ratio(self):
        objective = SLOObjective(name="x", kind="deadline_miss_rate",
                                 max_ratio=0.2)
        assert objective.budget == pytest.approx(0.2)

    def test_strict_keys_in_config_entries(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            objective_from_dict({"name": "x", "threshold": 5})
        with pytest.raises(ConfigError, match="missing 'name'"):
            objective_from_dict({"kind": "latency"})

    def test_document_schema_and_duplicates(self):
        with pytest.raises(ConfigError, match="schema"):
            validate_slo_document({"objectives": []})
        with pytest.raises(ConfigError, match="non-empty"):
            validate_slo_document({"schema": SLO_SCHEMA,
                                   "objectives": []})
        with pytest.raises(ConfigError, match="duplicate"):
            validate_slo_document({
                "schema": SLO_SCHEMA,
                "objectives": [
                    {"name": "x", "threshold_us": 1.0},
                    {"name": "x", "threshold_us": 2.0}]})

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text('{"schema": "repro.obs.slo/v1", "objectives": '
                        '[{"name": "r", "op": "read", '
                        '"threshold_us": 50.0}]}')
        objectives = load_slo_config(path)
        assert [o.name for o in objectives] == ["r"]
        with pytest.raises(ConfigError, match="not found"):
            load_slo_config(tmp_path / "absent.json")


class TestFiltersAndWindow:
    def test_filters_gate_observations(self):
        objective = latency_objective(op="read", stream=2,
                                      device_kind="salamander")
        assert objective.matches("read", 2, "salamander")
        assert not objective.matches("write", 2, "salamander")
        assert not objective.matches("read", 1, "salamander")
        assert not objective.matches("read", 2, "baseline")

    def test_none_filters_match_everything(self):
        objective = latency_objective(op=None)
        assert objective.matches("trim", 7, "whatever")

    def test_engine_only_feeds_matching_windows(self):
        engine = SLOEngine([latency_objective(op="read"),
                            latency_objective(name="w", op="write")])
        observe_n(engine, [10.0] * 4, op="read")
        report = engine.evaluate()
        by_name = {r["name"]: r for r in report["objectives"]}
        assert by_name["read-p99"]["observed"] == 4
        assert by_name["w"]["observed"] == 0
        assert by_name["w"]["ok"]  # no data = no violation

    def test_sim_time_eviction(self):
        engine = SLOEngine([latency_objective(window_us=10.0)])
        # 200-latency samples early, then cheap ones 50 us later: the
        # expensive cohort ages out of the 10 us window.
        engine.observe(1.0, 200.0, "read", 0, "dev", False)
        engine.observe(2.0, 200.0, "read", 0, "dev", False)
        for t in (50.0, 51.0, 52.0):
            engine.observe(t, 5.0, "read", 0, "dev", False)
        result = engine.evaluate()["objectives"][0]
        assert result["window_samples"] == 3
        assert result["current"] == pytest.approx(5.0)
        assert result["ok"]
        assert result["observed"] == 5  # lifetime counter keeps all

    def test_capacity_cap(self):
        engine = SLOEngine([latency_objective(window_us=1e12)])
        observe_n(engine, [1.0] * (WINDOW_CAPACITY + 50))
        result = engine.evaluate()["objectives"][0]
        assert result["window_samples"] == WINDOW_CAPACITY


class TestEvaluation:
    def test_latency_breach_and_burn_rate(self):
        engine = SLOEngine([latency_objective(percentile=50.0,
                                              threshold_us=100.0)])
        observe_n(engine, [50.0, 60.0, 300.0, 400.0])
        result = engine.evaluate()["objectives"][0]
        assert not result["ok"]  # p50 = 180 > 100
        assert result["bad"] == 2
        assert result["bad_fraction"] == pytest.approx(0.5)
        # budget defaults to 50% for a p50 objective: burn rate 1.0
        assert result["burn_rate"] == pytest.approx(1.0)

    def test_latency_within_threshold_is_ok(self):
        engine = SLOEngine([latency_objective()])
        observe_n(engine, [10.0] * 20)
        report = engine.evaluate()
        assert report["ok"]
        assert report["schema"] == SLO_REPORT_SCHEMA
        assert not slo_failed(report)

    def test_deadline_miss_rate_kind(self):
        objective = SLOObjective(name="miss", kind="deadline_miss_rate",
                                 max_ratio=0.25, window_us=1000.0)
        engine = SLOEngine([objective])
        observe_n(engine, [10.0] * 3, missed=False)
        observe_n(engine, [10.0] * 2, missed=True)
        result = engine.evaluate()["objectives"][0]
        assert result["current"] == pytest.approx(0.4)
        assert not result["ok"]
        assert result["burn_rate"] == pytest.approx(0.4 / 0.25)

    def test_offline_matches_live(self):
        records = [
            {"end_us": float(i), "total_us": 10.0 * (i + 1),
             "op": "read", "stream": 0, "device_kind": "dev",
             "deadline_missed": i % 2 == 0}
            for i in range(10)
        ]
        objectives = [latency_objective(threshold_us=55.0,
                                        percentile=50.0)]
        live = SLOEngine(objectives)
        for r in records:
            live.observe(r["end_us"], r["total_us"], r["op"],
                         r["stream"], r["device_kind"],
                         r["deadline_missed"])
        # shuffle: the evaluator must re-sort by end_us
        assert evaluate_records(list(reversed(records)), objectives) \
            == live.evaluate()

    def test_format_report_flags_violations(self):
        engine = SLOEngine([latency_objective(threshold_us=1.0)])
        observe_n(engine, [50.0] * 4)
        text = format_slo_report(engine.evaluate())
        assert "VIOLATED" in text
        assert "`read-p99`" in text
        assert "**NO**" in text

    def test_empty_engine_rejected(self):
        with pytest.raises(ConfigError):
            SLOEngine([])


class TestSingleton:
    """There is no process-wide SLO engine to install: ``repro traffic
    --slo`` builds one per cell and ``repro slo`` evaluates records
    offline, so nothing is bound by default and nothing leaks."""

    def test_disabled_by_default(self, make_baseline):
        fields = {field.name for field in dataclasses.fields(RunContext)}
        assert "slo" not in fields
        for name in ("engine", "enabled", "install", "uninstall",
                     "installed"):
            assert not hasattr(slo, name), name
        assert not hasattr(DeviceQueue(make_baseline()), "_slo")

    def test_install_accepts_engine_or_objectives(self):
        # Engines are built from objectives; two built from the same
        # objectives share no state.
        objectives = [latency_objective()]
        first, second = SLOEngine(objectives), SLOEngine(objectives)
        observe_n(first, [10.0] * 3)
        assert first.evaluate()["objectives"][0]["observed"] == 3
        assert second.evaluate()["objectives"][0]["observed"] == 0

    def test_installed_scope_restores(self):
        # A traffic run evaluates its objectives per cell and hands the
        # run context back as it found it.
        objectives = [SLOObjective(name="all-p99", kind="latency",
                                   percentile=99.0,
                                   threshold_us=10_000_000.0,
                                   window_us=1_000_000.0)]
        document = run_traffic(
            EngineConfig(tenants=4, duration_us=3000.0, cells=2),
            seed=1, objectives=objectives)
        cells = document["slo"]["cells"]
        assert len(cells) == 2
        assert all(cell["objectives"][0]["observed"] > 0 for cell in cells)
        assert context.current() == RunContext()


class TestMetricsBridge:
    def test_gauges_published_when_metrics_enabled(self):
        registry = MetricsRegistry()
        with context.scoped(metrics=registry):
            engine = SLOEngine([latency_objective(threshold_us=1.0)])
        observe_n(engine, [50.0] * 4)
        doc = registry.to_dict()
        families = {m["name"]: m for m in doc["metrics"]}
        for name in ("repro_slo_observations_total",
                     "repro_slo_budget_burn_total",
                     "repro_slo_current_us",
                     "repro_slo_threshold_us",
                     "repro_slo_breaching",
                     "repro_slo_burn_rate"):
            assert name in families, name
        breaching = families["repro_slo_breaching"]["samples"]
        assert breaching[0]["value"] == 1.0
        observations = families["repro_slo_observations_total"]
        assert observations["samples"][0]["value"] == 4.0

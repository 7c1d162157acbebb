"""The ``repro report`` claim checker against crafted tables and artifacts.

The checks read tables; the ``agreement`` scenario kind writes the ones
the §4.2 rows read, and one module-scoped run of it pins their shape.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.reporting.claims import (
    QUEUEING_COLUMNS,
    REPORT_SCHEMA,
    THROUGHPUT_COLUMNS,
    TRAFFIC_COLUMNS,
    TRAFFIC_TOLERANCE,
    ClaimResult,
    build_report,
    check_lifetime_extension,
    check_queueing_latency,
    check_recovery_traffic,
    check_throughput_degradation,
    check_traffic_latency,
    format_report,
    report_failed,
)
from repro.reporting.export import load_experiments
from repro.scenarios import run_scenario


@pytest.fixture(scope="module")
def agreement():
    """``table -> rows`` (dicts) of one run of the agreement kind."""
    tables = run_scenario({"name": "agreement", "kind": "agreement"}
                          ).document()["tables"]
    return {name: [dict(zip(table["headers"], row))
                   for row in table["rows"]]
            for name, table in tables.items()}


def _table(records: list[dict]) -> dict:
    return {"headers": list(records[0]),
            "rows": [list(record.values()) for record in records]}


def _document(kind: str, **tables) -> dict:
    return {"experiment": kind, "meta": {"kind": kind},
            "tables": {name: _table(records)
                       for name, records in tables.items()},
            "series": {}}


def _experiments(*documents) -> dict:
    """What :func:`load_experiments` returns for these documents."""
    return {doc["meta"]["kind"]: (Path(f"{doc['experiment']}.json"), doc)
            for doc in documents}


def _fleet(table="summary", **lifetimes) -> dict:
    return _document("fleet", **{table: [
        {"mode": mode, "mean_lifetime_days": days}
        for mode, days in lifetimes.items()]})


def _timeseries_doc(capacities):
    return {"schema": "repro.obs.timeseries/v1", "series": [
        {"name": "repro_fleet_capacity_bytes", "labels": {"mode": mode},
         "t": [float(i) for i in range(len(values))], "v": values}
        for mode, values in capacities.items()]}


#: Agreement rows at their models, every check passing.
THROUGHPUT = [{"level": level, "opages_per_fpage": 4,
               "measured_factor": (4 - level) / 4 + 0.01,
               "analytic_factor": (4 - level) / 4} for level in (1, 2, 3)]
QUEUEING = [{"utilisation": rho, "channels": channels, "queue_depth": 64,
             "service_us": 61.0, "iops": 1e4, "requests": 1500,
             "measured_mean_latency_us": 100.0,
             "analytic_mean_latency_us": 105.0}
            for rho, channels in ((0.3, 1), (0.5, 1), (0.7, 1), (0.5, 4))]
TRAFFIC = [{"level": level, "channels": 2, "service_us": 100.0,
            "iops": 1e4, "requests": 2000,
            "measured_p99_latency_us": 400.0,
            "analytic_p99_latency_us": 380.0} for level in (0, 1, 2, 3)]
AGREEMENT = _document("agreement", throughput=THROUGHPUT,
                      queueing=QUEUEING, traffic_p99=TRAFFIC)


class TestLifetimeExtension:
    def test_extension_within_envelope_passes(self):
        results = check_lifetime_extension(
            {"baseline": 100.0, "shrink": 130.0, "regen": 150.0})
        assert [r.status for r in results] == ["pass", "pass"]
        shrink = results[0]
        assert shrink.claim == "lifetime_extension/shrink"
        assert shrink.observed == pytest.approx(1.3)
        assert "within the paper's 1.5x envelope" in shrink.detail

    def test_beyond_envelope_still_passes_but_annotated(self):
        # "Up to 1.5x" is a reported max, not a cap: exceeding it is
        # not a regression, so the claim passes with an annotation.
        (result,) = [r for r in check_lifetime_extension(
            {"baseline": 100.0, "shrink": 120.0, "regen": 210.0})
            if r.claim.endswith("regen")]
        assert result.status == "pass"
        assert "beyond the paper's 1.5x envelope" in result.detail

    def test_regression_fails(self):
        (result,) = [r for r in check_lifetime_extension(
            {"baseline": 100.0, "shrink": 80.0, "regen": 150.0})
            if r.claim.endswith("shrink")]
        assert result.status == "fail"
        assert result.observed == pytest.approx(0.8)

    def test_missing_modes_skip_with_rerun_hint(self):
        results = check_lifetime_extension({"baseline": 100.0})
        assert [r.status for r in results] == ["skip", "skip"]
        assert "`repro run scenarios/fleet.json --out DIR`" in \
            results[0].detail

    def test_zero_baseline_skips(self):
        results = check_lifetime_extension(
            {"baseline": 0.0, "shrink": 100.0, "regen": 100.0})
        assert all(r.status == "skip" for r in results)

    def test_a_sweep_feeds_the_rows_from_by_mode(self):
        report = build_report(experiments=_experiments(_fleet(
            "by_mode", baseline=600.0, shrink=859.0, regen=1164.0)))
        rows = {c["claim"]: c for c in report["claims"]
                if c["claim"].startswith("lifetime_extension/")}
        assert [row["status"] for row in rows.values()] == ["pass", "pass"]
        assert rows["lifetime_extension/shrink"]["observed"] == \
            pytest.approx(859.0 / 600.0, abs=1e-4)
        assert "fleet/by_mode" in rows["lifetime_extension/regen"]["detail"]


class TestAgreementTables:
    """The agreement kind's tables: their shape and the §4.2 physics."""

    def test_tables_carry_every_column_a_check_reads(self, agreement):
        for table, columns, keys in (
                ("throughput", THROUGHPUT_COLUMNS, [1, 2, 3]),
                ("queueing", QUEUEING_COLUMNS,
                 [(0.3, 1), (0.5, 1), (0.7, 1), (0.5, 4)]),
                ("traffic_p99", TRAFFIC_COLUMNS, [0, 1, 2, 3])):
            rows = agreement[table]
            assert all(set(columns) <= set(row) for row in rows), table
            assert [(row["utilisation"], row["channels"])
                    if table == "queueing" else row["level"]
                    for row in rows] == keys
        assert all(row["queue_depth"] == 64
                   for row in agreement["queueing"])

    def test_l3_service_is_over_1_5x_l0(self, agreement):
        """The RegenS 4/(4-L) per-byte cost shows up in the measured
        service time — and through it, the analytic tail."""
        by_level = {row["level"]: row for row in agreement["traffic_p99"]}
        l0, l3 = by_level[0], by_level[3]
        assert l3["service_us"] > 1.5 * l0["service_us"]
        assert l3["analytic_p99_latency_us"] > \
            l0["analytic_p99_latency_us"]
        assert l3["measured_p99_latency_us"] > \
            l0["measured_p99_latency_us"]

    def test_every_row_passes_at_the_default_tolerance(self, agreement):
        results = (check_throughput_degradation(agreement["throughput"])
                   + check_queueing_latency(agreement["queueing"])
                   + check_traffic_latency(agreement["traffic_p99"]))
        assert [r.claim for r in results] == [
            "throughput_degradation/L1", "throughput_degradation/L2",
            "throughput_degradation/L3", "queueing_latency/rho0.3",
            "queueing_latency/rho0.5", "queueing_latency/rho0.7",
            "queueing_latency/c4_rho0.5", "traffic_p99/l0",
            "traffic_p99/l1", "traffic_p99/l2", "traffic_p99/l3"]
        assert all(r.status == "pass" for r in results), [
            (r.claim, r.observed, r.expected) for r in results]


class TestThroughputDegradation:
    def test_measured_matches_analytic_mix_model(self, agreement):
        for row in agreement["throughput"]:
            assert row["measured_factor"] == pytest.approx(
                (4 - row["level"]) / 4, rel=0.10)
            assert row["analytic_factor"] == (4 - row["level"]) / 4

    def test_check_passes_at_default_tolerance(self):
        results = check_throughput_degradation(THROUGHPUT)
        assert [r.claim for r in results] == [
            "throughput_degradation/L1",
            "throughput_degradation/L2",
            "throughput_degradation/L3",
        ]
        assert all(r.status == "pass" for r in results)
        # Expected strings carry the (P - L)/P formula.
        assert "3/4" in results[0].expected

    def test_off_model_scan_fails(self):
        (result,) = check_throughput_degradation(
            [{**THROUGHPUT[0], "measured_factor": 0.5}])
        assert result.status == "fail"
        assert result.observed == 0.5


class TestQueueingLatency:
    def test_measured_matches_analytic_below_saturation(self, agreement):
        (run,) = [row for row in agreement["queueing"]
                  if (row["utilisation"], row["channels"]) == (0.5, 1)]
        assert run["service_us"] > 0
        assert run["measured_mean_latency_us"] == pytest.approx(
            run["analytic_mean_latency_us"], rel=0.15)
        # At rho=0.5 there is genuine queueing to measure.
        assert run["measured_mean_wait_us"] > 0

    def test_check_passes_at_default_tolerance(self):
        results = check_queueing_latency(QUEUEING)
        assert len(results) == 4
        assert all(r.status == "pass" for r in results)
        claims = {r.claim for r in results}
        assert "queueing_latency/rho0.7" in claims
        assert "queueing_latency/c4_rho0.5" in claims
        assert "queue depth 64" in results[0].detail

    def test_latency_grows_with_utilisation(self, agreement):
        one_channel = [row["measured_mean_latency_us"]
                       for row in agreement["queueing"]
                       if row["channels"] == 1]
        assert one_channel == sorted(one_channel)

    def test_off_model_latency_fails(self):
        (result,) = check_queueing_latency(
            [{**QUEUEING[0], "measured_mean_latency_us": 150.0}])
        assert result.status == "fail"


class TestTrafficLatency:
    def test_all_levels_pass_at_default_tolerance(self):
        results = check_traffic_latency(TRAFFIC)
        assert [r.claim for r in results] == [
            "traffic_p99/l0", "traffic_p99/l1",
            "traffic_p99/l2", "traffic_p99/l3"]
        assert all(r.status == "pass" for r in results)
        assert "on 2 channels" in results[0].detail

    def test_measured_point_is_consistent(self, agreement):
        run = agreement["traffic_p99"][0]
        assert run["requests"] > 500
        assert run["measured_p99_latency_us"] > run["service_us"]
        assert run["analytic_p99_latency_us"] > run["service_us"]
        deviation = abs(run["measured_p99_latency_us"]
                        - run["analytic_p99_latency_us"])
        assert deviation <= TRAFFIC_TOLERANCE * \
            run["analytic_p99_latency_us"]

    def test_degradation_raises_service_and_tail(self, agreement):
        service = [row["service_us"] for row in agreement["traffic_p99"]]
        assert service == sorted(service)

    def test_zero_tolerance_fails(self):
        results = check_traffic_latency(TRAFFIC[:1], tolerance=0.0)
        assert results[0].status == "fail"

    def test_non_finite_overlay_fails(self):
        (result,) = check_traffic_latency(
            [{**TRAFFIC[0], "analytic_p99_latency_us": float("inf")}])
        assert result.status == "fail"


class TestRecoveryTraffic:
    def test_gradual_shedding_beats_cliff(self):
        result = check_recovery_traffic({
            "baseline": [100.0, 100.0, 50.0, 50.0],   # one big cliff
            "shrink": [100.0, 90.0, 80.0, 70.0],      # many small drops
        })
        assert result.status == "pass"
        assert result.observed == pytest.approx(0.10)

    def test_cliffier_shrink_fails(self):
        result = check_recovery_traffic({
            "baseline": [100.0, 90.0, 80.0],
            "shrink": [100.0, 100.0, 20.0],
        })
        assert result.status == "fail"

    def test_missing_curves_skip(self):
        assert check_recovery_traffic({}).status == "skip"
        assert check_recovery_traffic(
            {"baseline": [100.0]}).status == "skip"


class TestBuildReport:
    def test_full_pass_report(self):
        report = build_report(
            timeseries_doc=_timeseries_doc(
                {"baseline": [100.0, 100.0, 40.0],
                 "shrink": [100.0, 90.0, 80.0]}),
            experiments=_experiments(
                _fleet(baseline=100.0, shrink=130.0, regen=150.0),
                AGREEMENT))
        assert report["schema"] == REPORT_SCHEMA
        # The four wear_provenance claims skip without endurance records.
        assert report["summary"] == {"pass": 14, "fail": 0, "skip": 4}
        skipped = [c["claim"] for c in report["claims"]
                   if c["status"] == "skip"]
        assert all(c.startswith("wear_provenance/") for c in skipped)
        assert not report_failed(report)
        assert report["inputs"]["timeseries"] is True
        assert report["inputs"]["experiments"] == {
            "agreement.json": "agreement", "fleet.json": "fleet"}
        assert "artifact" not in report["inputs"]

    def test_no_inputs_is_all_skip(self):
        report = build_report()
        assert report["summary"] == {"pass": 0, "fail": 0, "skip": 18}
        hints = {c["claim"]: c["detail"] for c in report["claims"]}
        assert "scenarios/agreement.json" in hints["traffic_p99/l3"]
        assert "scenarios/fleet.json" in hints["lifetime_extension/regen"]

    def test_failed_claim_detected(self):
        report = build_report(experiments=_experiments(
            _fleet(baseline=100.0, shrink=50.0, regen=150.0)))
        assert report_failed(report)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="tolerance"):
            build_report(tolerance=1.5)
        with pytest.raises(ConfigError, match="tolerance"):
            build_report(tolerance=-0.1)

    def test_trace_and_metrics_inputs_embedded(self):
        trace = [{"kind": "span", "name": "s", "time": 0.0,
                  "end_time": 2.0, "span_id": 1, "parent_id": None}]
        metrics = {"metrics": [{"name": "m", "type": "counter",
                                "samples": []}]}
        report = build_report(metrics_doc=metrics, trace_records=trace)
        assert report["metric_families"] == 1
        assert report["trace_summary"]["span_count"] == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t["queueing"]["headers"].__setitem__(
            0, "load"), "row 0 missing 'utilisation'"),
        (lambda t: t.pop("traffic_p99"), "tables missing 'traffic_p99'"),
        (lambda t: t["throughput"]["rows"][0].pop(),
         "row 0 does not match its headers"),
        (lambda t: t["throughput"]["rows"][1].__setitem__(0, "one"),
         "'level' must be int"),
    ], ids=["column", "table", "row width", "cell type"])
    def test_a_malformed_table_names_its_document(self, edit, message):
        document = json.loads(json.dumps(AGREEMENT))
        edit(document["tables"])
        with pytest.raises(ConfigError, match=message) as error:
            build_report(experiments=_experiments(document))
        assert "agreement.json" in str(error.value)


class TestLoadExperiments:
    def test_reads_every_document_but_the_sinks_and_the_report(
            self, tmp_path):
        for name, document in (("fleet.json", _fleet(baseline=1.0)),
                               ("agreement.json", AGREEMENT),
                               ("metrics.json", {"metrics": []}),
                               ("report.json", {"claims": []})):
            (tmp_path / name).write_text(json.dumps(document))
        found = load_experiments(tmp_path)
        assert {kind: path.name for kind, (path, _) in found.items()} == {
            "agreement": "agreement.json", "fleet": "fleet.json"}

    def test_two_documents_of_one_kind_are_refused(self, tmp_path):
        for name in ("fleet.json", "fleet-sweep.json"):
            (tmp_path / name).write_text(json.dumps(_fleet(baseline=1.0)))
        with pytest.raises(ConfigError, match="two fleet") as error:
            load_experiments(tmp_path)
        assert str(tmp_path / "fleet.json") in str(error.value)

    def test_a_document_without_a_kind_is_refused(self, tmp_path):
        (tmp_path / "x.json").write_text(json.dumps(
            {"meta": {}, "tables": {}}))
        with pytest.raises(ConfigError, match="missing 'kind'") as error:
            load_experiments(tmp_path)
        assert str(tmp_path / "x.json") in str(error.value)


class TestFormatting:
    def test_markdown_report(self):
        report = build_report(experiments=_experiments(
            _fleet(baseline=100.0, shrink=130.0, regen=150.0)))
        text = format_report(report)
        assert "## Salamander claim check" in text
        assert "| claim | status |" in text
        assert "`lifetime_extension/shrink` | pass" in text
        # Skipped claims render '-' for observed.
        assert "| skip | - |" in text

    def test_claim_result_json_round_trip(self):
        result = ClaimResult("c", "pass", 1.5, "exp", "det")
        assert result.to_json() == {
            "claim": "c", "status": "pass", "observed": 1.5,
            "expected": "exp", "detail": "det"}

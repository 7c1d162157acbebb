"""The ``repro report`` claim checker against crafted artifacts."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.models.performance import throughput_factor
from repro.reporting.claims import (
    REPORT_SCHEMA,
    TRAFFIC_TOLERANCE,
    ClaimResult,
    build_report,
    check_lifetime_extension,
    check_recovery_traffic,
    check_throughput_degradation,
    check_traffic_latency,
    format_report,
    measured_throughput_factor,
    measured_traffic_p99,
    report_failed,
)


def _timeseries_doc(lifetimes=None, capacities=None):
    series = []
    for mode, value in (lifetimes or {}).items():
        series.append({"name": "repro_fleet_mean_lifetime_days",
                       "labels": {"mode": mode}, "t": [100.0],
                       "v": [value]})
    for mode, values in (capacities or {}).items():
        series.append({"name": "repro_fleet_capacity_bytes",
                       "labels": {"mode": mode},
                       "t": [float(i) for i in range(len(values))],
                       "v": values})
    return {"schema": "repro.obs.timeseries/v1", "series": series}


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


class TestThroughputDegradation:
    def test_measured_matches_analytic_mix_model(self):
        p = 4
        for level in (1, 2, 3):
            measured = measured_throughput_factor(level)
            assert measured == pytest.approx(
                throughput_factor(level, p), rel=0.10)

    def test_check_passes_at_default_tolerance(self):
        results = check_throughput_degradation()
        assert [r.claim for r in results] == [
            "throughput_degradation/L1",
            "throughput_degradation/L2",
            "throughput_degradation/L3",
        ]
        assert all(r.status == "pass" for r in results)
        # Expected strings carry the (P - L)/P formula.
        assert "3/4" in results[0].expected

    def test_unusable_level_skips(self):
        (result,) = check_throughput_degradation(levels=(9,))
        assert result.status == "skip"


class TestQueueingLatency:
    def test_measured_matches_analytic_below_saturation(self):
        from repro.reporting.claims import measured_queueing_latency

        run = measured_queueing_latency(0.5, n_requests=800)
        assert run["service_us"] > 0
        assert run["measured_mean_latency_us"] == pytest.approx(
            run["analytic_mean_latency_us"], rel=0.15)
        # At rho=0.5 there is genuine queueing to measure.
        assert run["measured_mean_wait_us"] > 0

    def test_check_passes_at_default_tolerance(self):
        from repro.reporting.claims import check_queueing_latency

        results = check_queueing_latency()
        assert len(results) == 4
        assert all(r.status == "pass" for r in results)
        claims = {r.claim for r in results}
        assert "queueing_latency/rho0.7" in claims
        assert "queueing_latency/c4_rho0.5" in claims

    def test_latency_grows_with_utilisation(self):
        from repro.reporting.claims import measured_queueing_latency

        low = measured_queueing_latency(0.3, n_requests=500)
        high = measured_queueing_latency(0.7, n_requests=500)
        assert (high["measured_mean_latency_us"]
                > low["measured_mean_latency_us"])

    def test_bad_utilisation_rejected(self):
        from repro.reporting.claims import measured_queueing_latency

        with pytest.raises(ConfigError):
            measured_queueing_latency(0.0)
        with pytest.raises(ConfigError):
            measured_queueing_latency(1.0)


class TestTrafficLatency:
    """The traffic-engine p99 rows (cached: the sim runs once per
    level per process, so these tests share the claim's own work)."""

    def test_all_levels_pass_at_default_tolerance(self):
        results = check_traffic_latency()
        assert [r.claim for r in results] == [
            "traffic_p99/l0", "traffic_p99/l1",
            "traffic_p99/l2", "traffic_p99/l3"]
        assert all(r.status == "pass" for r in results), [
            (r.claim, r.observed, r.expected) for r in results]

    def test_measured_point_is_consistent(self):
        run = measured_traffic_p99(0)
        assert run["requests"] > 500
        assert run["measured_p99_latency_us"] > run["service_us"]
        assert run["analytic_p99_latency_us"] > run["service_us"]
        deviation = abs(run["measured_p99_latency_us"]
                        - run["analytic_p99_latency_us"])
        assert deviation <= TRAFFIC_TOLERANCE * \
            run["analytic_p99_latency_us"]

    def test_degradation_raises_service_and_tail(self):
        """The RegenS 4/(4-L) per-byte cost must show up in the
        measured service time — and through it, the analytic tail."""
        l0 = measured_traffic_p99(0)
        l3 = measured_traffic_p99(3)
        assert l3["service_us"] > 1.5 * l0["service_us"]
        assert l3["analytic_p99_latency_us"] > \
            l0["analytic_p99_latency_us"]
        assert l3["measured_p99_latency_us"] > \
            l0["measured_p99_latency_us"]

    def test_bad_level_rejected(self):
        with pytest.raises(ConfigError, match="level"):
            measured_traffic_p99(4)

    def test_zero_tolerance_fails(self):
        results = check_traffic_latency(levels=(0,), tolerance=0.0)
        assert results[0].status == "fail"


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
        doc = _timeseries_doc(
            lifetimes={"baseline": 100.0, "shrink": 130.0,
                       "regen": 150.0},
            capacities={"baseline": [100.0, 100.0, 40.0],
                        "shrink": [100.0, 90.0, 80.0]})
        report = build_report(timeseries_doc=doc)
        assert report["schema"] == REPORT_SCHEMA
        # The four wear_provenance claims skip without endurance records.
        assert report["summary"] == {"pass": 14, "fail": 0, "skip": 4}
        skipped = [c["claim"] for c in report["claims"]
                   if c["status"] == "skip"]
        assert all(c.startswith("wear_provenance/") for c in skipped)
        assert not report_failed(report)
        assert report["inputs"]["timeseries"] is True

    def test_no_inputs_is_all_skip_plus_throughput(self):
        report = build_report()
        assert report["summary"]["fail"] == 0
        # 3 artifact-fed claims + 4 wear_provenance claims skip.
        assert report["summary"]["skip"] == 7
        # Throughput, queueing latency and traffic p99 are re-measured
        # on every run.
        assert report["summary"]["pass"] == 11

    def test_failed_claim_detected(self):
        doc = _timeseries_doc(
            lifetimes={"baseline": 100.0, "shrink": 50.0,
                       "regen": 150.0})
        report = build_report(timeseries_doc=doc)
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


class TestFormatting:
    def test_markdown_report(self):
        doc = _timeseries_doc(
            lifetimes={"baseline": 100.0, "shrink": 130.0,
                       "regen": 150.0})
        report = build_report(timeseries_doc=doc)
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

"""Tests for the command-line interface."""

import json
import os

import pytest

from repro import context
from repro.cli import (
    EXIT_CLAIM_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_UNEXPECTED_ERROR,
    build_parser,
    main,
)
from repro.context import RunContext
from repro.obs import validate_metrics_document, validate_timeseries_document


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    @pytest.mark.parametrize("argv", [
        ["fig2"],
        ["fig2", "--ecc-family", "ldpc", "--pec-limit", "500"],
        ["carbon"],
        ["carbon", "--ru", "0.8", "--renewable"],
        ["tco", "--f-opex", "0.5"],
    ])
    def test_fast_commands_run(self, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_fig2_output_contains_levels(self, capsys):
        main(["fig2"])
        out = capsys.readouterr().out
        for level in ("L0", "L1", "L2", "L3"):
            assert level in out
        assert "+50%" in out  # the paper's anchor

    def test_carbon_single_rate(self, capsys):
        main(["carbon", "--ru", "0.8", "--renewable"])
        out = capsys.readouterr().out
        assert "+20.0%" in out

    def test_tco_headline(self, capsys):
        main(["tco"])
        out = capsys.readouterr().out
        assert "+12.9%" in out
        assert "+25.8%" in out

    def test_fleet_small_run(self, capsys):
        assert main(["fleet", "--devices", "8", "--blocks", "32",
                     "--years", "4", "--step-days", "20",
                     "--mode", "baseline", "--points", "5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3a" in out
        assert "baseline" in out

    def test_tournament_small_run(self, capsys):
        assert main(["tournament", "--blocks", "24",
                     "--pec-limit", "20"]) == 0
        out = capsys.readouterr().out
        assert "regens" in out

    def test_replacement_small_run(self, capsys):
        assert main(["replacement", "--slots", "10", "--years", "6",
                     "--dwpd", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "measured Ru" in out

    def test_run_scenario_command(self, capsys, tmp_path):
        import json
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(
            {"name": "cli-fig2", "kind": "fig2",
             "params": {"pec_limit": 500}}))
        assert main(["run", str(scenario), "--out",
                     str(tmp_path / "artifacts")]) == 0
        out = capsys.readouterr().out
        assert "cli-fig2" in out
        assert (tmp_path / "artifacts" / "cli-fig2.json").exists()

    def test_health_small_run(self, capsys):
        assert main(["health", "--devices", "40", "--dwpd", "3.0",
                     "--max-days", "2500"]) == 0
        out = capsys.readouterr().out
        assert "predictor" in out
        assert "run-to-failure" in out


class TestVersionAndExitCodes:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()

    def test_config_error_maps_to_exit_2(self, capsys):
        # afr is a probability; 2.0 passes argparse but fails validation.
        assert main(["fleet", "--devices", "4", "--blocks", "32",
                     "--years", "1", "--afr", "2.0"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "configuration error" in err

    def test_unreadable_scenario_exits_2(self, capsys, tmp_path):
        # Missing, a directory, not JSON or unreadable: one
        # "configuration error" line each, never exit 3.
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        paths = [tmp_path / "nope.json", tmp_path, broken]
        if os.geteuid() != 0:   # root reads a mode-000 file anyway
            locked = tmp_path / "locked.json"
            locked.write_text("{}")
            locked.chmod(0)
            paths.append(locked)
        for path in paths:
            assert main(["run", str(path)]) == EXIT_CONFIG_ERROR, path
            err = capsys.readouterr().err
            assert err.startswith("repro: configuration error:")
            assert err.count("\n") == 1 and str(path) in err

    def test_unexpected_error_maps_to_exit_3(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("wires crossed")

        # build_parser resolves the handler from module globals at call
        # time, so patching the name reroutes the subcommand.
        monkeypatch.setattr("repro.cli._cmd_fig2", boom)
        assert main(["fig2"]) == EXIT_UNEXPECTED_ERROR
        err = capsys.readouterr().err
        assert "unexpected error" in err
        assert "RuntimeError" in err


class TestObservabilityFlags:
    def test_fleet_writes_metrics_and_trace(self, capsys, tmp_path):
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.jsonl"
        assert main(["fleet", "--devices", "8", "--blocks", "32",
                     "--years", "2", "--step-days", "20",
                     "--mode", "regen", "--points", "5",
                     "--metrics-out", str(metrics_path),
                     "--trace-out", str(trace_path)]) == 0
        assert context.current() == RunContext()  # the scope is gone
        document = json.loads(metrics_path.read_text())
        validate_metrics_document(document)
        names = {family["name"] for family in document["metrics"]}
        assert "repro_fleet_step_duration_seconds" in names
        assert "repro_fleet_devices_functioning" in names
        records = [json.loads(line)
                   for line in trace_path.read_text().splitlines()]
        times = [record["time"] for record in records]
        assert times == sorted(times)
        out = capsys.readouterr().out
        assert str(metrics_path) in out
        assert str(trace_path) in out

    def test_run_embeds_metrics_in_artifact(self, capsys, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(
            {"name": "cli-obs", "kind": "fig2",
             "params": {"pec_limit": 500}}))
        metrics_path = tmp_path / "m.json"
        assert main(["run", str(scenario),
                     "--out", str(tmp_path / "artifacts"),
                     "--metrics-out", str(metrics_path)]) == 0
        artifact = json.loads(
            (tmp_path / "artifacts" / "cli-obs.json").read_text())
        assert "metrics" in artifact
        validate_metrics_document(json.loads(metrics_path.read_text()))

    def test_flags_off_means_no_observability_cost(self, capsys, tmp_path):
        assert main(["fleet", "--devices", "4", "--blocks", "32",
                     "--years", "1", "--step-days", "20",
                     "--points", "3"]) == 0
        assert context.current() == RunContext()


class TestTimeseriesFlag:
    def test_fleet_writes_timeseries(self, capsys, tmp_path):
        ts_path = tmp_path / "ts.jsonl"
        assert main(["fleet", "--devices", "8", "--blocks", "32",
                     "--years", "2", "--step-days", "20",
                     "--mode", "all", "--points", "3",
                     "--timeseries-out", str(ts_path)]) == 0
        assert context.current() == RunContext()  # the scope is gone
        from repro.obs import load_timeseries
        document = load_timeseries(ts_path)  # validates on load
        names = {entry["name"] for entry in document["series"]}
        assert "repro_fleet_capacity_bytes" in names
        assert "repro_fleet_mean_lifetime_days" in names
        assert "repro_smart_wear_percentile" in names
        modes = {entry["labels"].get("mode")
                 for entry in document["series"]}
        assert {"baseline", "shrink", "regen"} <= modes
        assert str(ts_path) in capsys.readouterr().out

    def test_timeseries_cadence_thins_samples(self, tmp_path):
        dense = tmp_path / "dense.jsonl"
        sparse = tmp_path / "sparse.jsonl"
        argv = ["fleet", "--devices", "4", "--blocks", "32",
                "--years", "2", "--step-days", "10",
                "--mode", "baseline", "--points", "3"]
        assert main(argv + ["--timeseries-out", str(dense)]) == 0
        assert main(argv + ["--timeseries-out", str(sparse),
                            "--timeseries-cadence", "100"]) == 0
        from repro.obs import load_timeseries, series_from_document
        dense_t, _ = series_from_document(
            load_timeseries(dense), "repro_fleet_devices_functioning")
        sparse_t, _ = series_from_document(
            load_timeseries(sparse), "repro_fleet_devices_functioning")
        assert len(sparse_t) < len(dense_t)

    def test_run_embeds_timeseries_in_artifact(self, capsys, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            "name": "cli-ts", "kind": "fleet",
            "params": {"devices": 4, "horizon_days": 400,
                       "step_days": 20,
                       "geometry": {"blocks": 32,
                                    "fpages_per_block": 64}},
        }))
        ts_path = tmp_path / "ts.csv"
        assert main(["run", str(scenario),
                     "--out", str(tmp_path / "artifacts"),
                     "--timeseries-out", str(ts_path)]) == 0
        artifact = json.loads(
            (tmp_path / "artifacts" / "cli-ts.json").read_text())
        embedded = validate_timeseries_document(artifact["timeseries"])
        assert embedded["series"]
        assert ts_path.exists()  # CSV export alongside the artifact


class TestReportCommand:
    @staticmethod
    def _write_timeseries(path, lifetimes):
        lines = [json.dumps({"schema": "repro.obs.timeseries/v1",
                             "cadence": 0.0, "capacity": 4096,
                             "samples_taken": 1})]
        for mode, value in lifetimes.items():
            lines.append(json.dumps({
                "name": "repro_fleet_mean_lifetime_days",
                "labels": {"mode": mode}, "unit": "days",
                "kind": "gauge", "resolution": 0.0, "downsamples": 0,
                "t": [100.0], "v": [value]}))
        path.write_text("\n".join(lines) + "\n")

    def test_report_passes_on_healthy_timeseries(self, capsys, tmp_path):
        ts_path = tmp_path / "ts.jsonl"
        self._write_timeseries(ts_path, {"baseline": 400.0,
                                         "shrink": 520.0,
                                         "regen": 600.0})
        json_path = tmp_path / "report.json"
        assert main(["report", "--timeseries", str(ts_path),
                     "--json", str(json_path)]) == 0
        report = json.loads(json_path.read_text())
        assert report["schema"] == "repro.report/v1"
        assert report["summary"]["fail"] == 0
        by_claim = {c["claim"]: c for c in report["claims"]}
        assert by_claim["lifetime_extension/shrink"]["status"] == "pass"
        assert by_claim["throughput_degradation/L2"]["status"] == "pass"

    def test_report_claim_failure_exits_1(self, capsys, tmp_path):
        ts_path = tmp_path / "ts.jsonl"
        self._write_timeseries(ts_path, {"baseline": 400.0,
                                         "shrink": 100.0,
                                         "regen": 600.0})
        assert main(["report", "--timeseries", str(ts_path)]) \
            == EXIT_CLAIM_FAILED
        captured = capsys.readouterr()
        assert "FAILED" in captured.err
        assert "`lifetime_extension/shrink` | fail" in captured.out

    def test_report_prints_markdown_by_default(self, capsys, tmp_path):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "## Salamander claim check" in out
        assert "| claim | status |" in out

    def test_missing_metrics_exits_2(self, capsys, tmp_path):
        assert main(["report", "--metrics",
                     str(tmp_path / "nope.json")]) == EXIT_CONFIG_ERROR
        assert "not found" in capsys.readouterr().err

    def test_corrupt_metrics_exits_2(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        assert main(["report", "--metrics", str(path)]) \
            == EXIT_CONFIG_ERROR
        assert "not valid JSON" in capsys.readouterr().err

    def test_corrupt_timeseries_exits_2(self, capsys, tmp_path):
        path = tmp_path / "ts.jsonl"
        path.write_text("{broken\n")
        assert main(["report", "--timeseries", str(path)]) \
            == EXIT_CONFIG_ERROR

    def test_missing_artifact_exits_2(self, capsys, tmp_path):
        assert main(["report", "--artifact",
                     str(tmp_path / "nope.json")]) == EXIT_CONFIG_ERROR

    def test_bad_tolerance_exits_2(self, capsys, tmp_path):
        assert main(["report", "--tolerance", "1.5"]) \
            == EXIT_CONFIG_ERROR


class TestSweepCommand:
    ARGS = ["sweep", "--devices", "6", "--blocks", "16", "--years", "2",
            "--step-days", "20", "--runs", "2"]

    def test_jobs_do_not_change_artifact_bytes(self, capsys, tmp_path):
        """`--jobs 2` must emit the same bytes as `--jobs 1` — the CLI
        face of the parallel runner's determinism contract."""
        j1, j2 = tmp_path / "j1.json", tmp_path / "j2.json"
        assert main([*self.ARGS, "--jobs", "1", "--out", str(j1)]) == 0
        assert main([*self.ARGS, "--jobs", "2", "--out", str(j2)]) == 0
        assert j1.read_bytes() == j2.read_bytes()
        out = capsys.readouterr().out
        assert "sweep artifact" in out
        assert "fleet sweep" in out

    def test_artifact_validates_and_covers_grid(self, capsys, tmp_path):
        from repro.sim.parallel import load_sweep_artifact
        path = tmp_path / "sweep.json"
        assert main([*self.ARGS, "--jobs", "1", "--out", str(path)]) == 0
        document = load_sweep_artifact(path)
        assert len(document["seeds"]) == 2
        assert len(document["results"]) == \
            len(document["modes"]) * len(document["seeds"])

    def test_single_mode_sweep(self, capsys, tmp_path):
        path = tmp_path / "regen.json"
        assert main([*self.ARGS, "--mode", "regen", "--runs", "1",
                     "--out", str(path)]) == 0
        from repro.sim.parallel import load_sweep_artifact
        document = load_sweep_artifact(path)
        assert document["modes"] == ["regen"]

    def test_bad_jobs_maps_to_exit_2(self, capsys, tmp_path):
        assert main([*self.ARGS, "--jobs", "-2",
                     "--out", str(tmp_path / "x.json")]) == EXIT_CONFIG_ERROR
        assert "configuration error" in capsys.readouterr().err

    def test_jobs_auto_records_resolved_int(self, capsys, tmp_path):
        # 'auto' resolves in the parent; the artifact records the
        # resolved worker count, never the literal string.
        path = tmp_path / "auto.json"
        assert main([*self.ARGS, "--jobs", "auto",
                     "--out", str(path)]) == 0
        document = json.loads(path.read_text())
        assert isinstance(document["meta"]["jobs"], int)
        assert document["meta"]["jobs"] >= 1

    def test_explicit_jobs_leave_no_meta(self, capsys, tmp_path):
        # Explicit worker counts stay out of the document, so the
        # jobs-invariance byte-identity gates keep holding.
        path = tmp_path / "j2.json"
        assert main([*self.ARGS, "--jobs", "2", "--out", str(path)]) == 0
        assert "meta" not in json.loads(path.read_text())

    def test_jobs_gibberish_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main([*self.ARGS, "--jobs", "fast",
                  "--out", str(tmp_path / "x.json")])


class TestFleetShards:
    """`repro fleet --shards`: the sharded runner through the CLI."""

    ARGS = ["fleet", "--devices", "6", "--blocks", "16", "--years", "2",
            "--step-days", "20"]

    def test_single_shard_matches_serial_bytes(self, capsys, tmp_path):
        serial, sharded = tmp_path / "serial.json", tmp_path / "s1.json"
        assert main([*self.ARGS, "--out", str(serial)]) == 0
        assert main([*self.ARGS, "--shards", "1", "--jobs", "2",
                     "--out", str(sharded)]) == 0
        assert serial.read_bytes() == sharded.read_bytes()

    def test_jobs_do_not_change_artifact_bytes(self, capsys, tmp_path):
        j1, j4 = tmp_path / "j1.json", tmp_path / "j4.json"
        assert main([*self.ARGS, "--shards", "4", "--jobs", "1",
                     "--out", str(j1)]) == 0
        assert main([*self.ARGS, "--shards", "4", "--jobs", "4",
                     "--out", str(j4)]) == 0
        assert j1.read_bytes() == j4.read_bytes()

    def test_shards_recorded_in_config(self, capsys, tmp_path):
        path = tmp_path / "s2.json"
        assert main([*self.ARGS, "--shards", "2",
                     "--out", str(path)]) == 0
        assert json.loads(path.read_text())["config"]["shards"] == 2

    def test_bad_shards_maps_to_exit_2(self, capsys, tmp_path):
        assert main([*self.ARGS, "--shards", "0",
                     "--out", str(tmp_path / "x.json")]) \
            == EXIT_CONFIG_ERROR
        assert "configuration error" in capsys.readouterr().err

    def test_fault_plan_on_one_shard_is_silent_and_identical(
            self, capsys, tmp_path, recwarn):
        # A plan forces the one-shard layout; an omitted --shards and
        # --shards 1 already are that layout, so neither warns.
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "schema": "repro.faults/v1",
            "events": [{"site": "fleet.step", "fault": "device_loss",
                        "when": 4, "args": {"devices": 2}}]}))
        omitted, one = tmp_path / "omitted.json", tmp_path / "s1.json"
        assert main([*self.ARGS, "--faults", str(plan),
                     "--out", str(omitted)]) == 0
        assert main([*self.ARGS, "--faults", str(plan), "--shards", "1",
                     "--out", str(one)]) == 0
        assert not [w for w in recwarn.list
                    if issubclass(w.category, RuntimeWarning)]
        assert omitted.read_bytes() == one.read_bytes()
        assert json.loads(one.read_text())["faults"] is not None
        with pytest.warns(RuntimeWarning, match="fault plan"):
            assert main([*self.ARGS, "--faults", str(plan), "--shards", "3",
                         "--out", str(tmp_path / "s3.json")]) == 0


class TestTrafficCommand:
    """`repro traffic`: the multi-tenant engine behind the engine/v1
    artifact."""

    FAST = ["traffic", "--tenants", "12", "--duration", "4000",
            "--cells", "1"]

    def test_writes_validated_artifact(self, capsys, tmp_path):
        from repro.workloads.engine import load_engine_artifact

        out = tmp_path / "traffic.json"
        assert main([*self.FAST, "--out", str(out)]) == 0
        document = load_engine_artifact(out)
        assert document["config"]["tenants"] == 12
        assert document["totals"]["offered"] > 0
        printed = capsys.readouterr().out
        assert "traffic artifact ->" in printed
        assert "tenant class" in printed

    def test_jobs_do_not_change_artifact_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "j1.json", tmp_path / "j2.json"
        assert main([*self.FAST, "--jobs", "1", "--out", str(a)]) == 0
        assert main([*self.FAST, "--jobs", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_auto_records_resolved_int(self, capsys, tmp_path):
        path = tmp_path / "auto.json"
        assert main([*self.FAST, "--jobs", "auto",
                     "--out", str(path)]) == 0
        document = json.loads(path.read_text())
        assert isinstance(document["meta"]["jobs"], int)
        assert document["meta"]["jobs"] >= 1
        # Explicit jobs leave the document meta-free.
        plain = tmp_path / "j1b.json"
        assert main([*self.FAST, "--jobs", "1", "--out", str(plain)]) == 0
        assert "meta" not in json.loads(plain.read_text())

    def test_shards_raise_resolved_cells(self, capsys, tmp_path):
        # --shards guarantees at least that many failure-domain cells
        # (capped at the tenant count) and lands in the artifact config.
        path = tmp_path / "s4.json"
        assert main(["traffic", "--tenants", "12", "--duration", "4000",
                     "--shards", "4", "--jobs", "2",
                     "--out", str(path)]) == 0
        document = json.loads(path.read_text())
        assert document["config"]["shards"] == 4
        assert document["config"]["resolved_cells"] == 4

    def test_slo_gates_exit_code(self, capsys, tmp_path):
        config = TestSLOCommand.slo_config(tmp_path)
        out = tmp_path / "ok.json"
        assert main([*self.FAST, "--slo", str(config),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        strict = TestSLOCommand.slo_config(tmp_path, threshold_us=0.001,
                                           name="impossible")
        assert main([*self.FAST, "--slo", str(strict),
                     "--out", str(tmp_path / "bad.json")]) \
            == EXIT_CLAIM_FAILED
        assert "VIOLATED" in capsys.readouterr().err

    def test_metrics_out_publishes_traffic_families(self, capsys,
                                                    tmp_path):
        metrics_path = tmp_path / "metrics.json"
        assert main([*self.FAST, "--out", str(tmp_path / "t.json"),
                     "--metrics-out", str(metrics_path)]) == 0
        names = {family["name"] for family in
                 json.loads(metrics_path.read_text())["metrics"]}
        assert "repro_traffic_requests_total" in names
        assert "repro_traffic_p99_latency_us" in names
        assert "repro_traffic_tenants" in names

    def test_bad_utilisation_exits_2(self, capsys, tmp_path):
        assert main([*self.FAST, "--utilisation", "0",
                     "--out", str(tmp_path / "t.json")]) \
            == EXIT_CONFIG_ERROR

    def test_missing_trace_exits_2(self, capsys, tmp_path):
        assert main([*self.FAST, "--trace",
                     str(tmp_path / "absent.trace")]) \
            == EXIT_CONFIG_ERROR

    def test_trace_replay(self, capsys, tmp_path):
        from repro.workloads import Trace
        from repro.workloads.generators import Operation, OpType

        trace = Trace(n_lbas=8)
        for lba in range(8):
            trace.append(Operation(OpType.WRITE, lba, b"x" * 16))
        trace_path = trace.save(tmp_path / "t.trace")
        out = tmp_path / "replay.json"
        assert main([*self.FAST, "--trace", str(trace_path),
                     "--out", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["config"]["trace_ops"] == 8
        assert all(row["class"] == "trace"
                   for row in document["tenants"])


class TestSLOCommand:
    """`repro slo`: probe-measured and offline SLO evaluation."""

    #: Small probe so the measured tests stay fast; deterministic for
    #: the default seed.
    MEASURE = ["slo", "--measure", "--mode", "baseline",
               "--requests", "120", "--every", "4"]

    @staticmethod
    def slo_config(tmp_path, threshold_us=1e9, name="read-p99"):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({
            "schema": "repro.obs.slo/v1",
            "objectives": [{"name": name, "kind": "latency",
                            "op": "read", "percentile": 99.0,
                            "threshold_us": threshold_us,
                            "window_us": 1e9}]}))
        return path

    def test_measure_meets_generous_objective(self, capsys, tmp_path):
        config = self.slo_config(tmp_path)
        report_path = tmp_path / "report.json"
        assert main([*self.MEASURE, "--slo", str(config),
                     "--json", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "SLO report" in out
        assert "all met" in out
        assert "Latency attribution" in out  # segments table printed
        report = json.loads(report_path.read_text())
        assert report["schema"] == "repro.obs.slo_report/v1"
        assert report["ok"]
        assert report["objectives"][0]["name"] == "baseline/read-p99"

    def test_violated_p99_exits_nonzero(self, capsys, tmp_path):
        # The acceptance criterion: an impossible threshold must gate
        # the exit code, not just print a sad table.
        config = self.slo_config(tmp_path, threshold_us=0.001)
        assert main([*self.MEASURE,
                     "--slo", str(config)]) == EXIT_CLAIM_FAILED
        captured = capsys.readouterr()
        assert "VIOLATED" in captured.err
        assert "**NO**" in captured.out

    def test_reqtrace_out_round_trips_offline(self, capsys, tmp_path):
        from repro.obs.reqtrace import (
            load_reqtrace,
            validate_reqtrace_records,
        )

        config = self.slo_config(tmp_path)
        trace_path = tmp_path / "rt.jsonl"
        assert main([*self.MEASURE, "--slo", str(config),
                     "--reqtrace-out", str(trace_path)]) == 0
        header, records = load_reqtrace(trace_path)
        assert header["meta"]["modes"] == ["baseline"]
        assert records
        validate_reqtrace_records(records)
        capsys.readouterr()
        # Offline evaluation of the artifact agrees: exit 0 here, exit
        # 1 under an impossible threshold.
        assert main(["slo", "--slo", str(config),
                     "--reqtrace", str(trace_path)]) == 0
        tight = self.slo_config(tmp_path, threshold_us=0.001)
        assert main(["slo", "--slo", str(tight),
                     "--reqtrace", str(trace_path)]) == EXIT_CLAIM_FAILED

    def test_needs_exactly_one_input(self, capsys, tmp_path):
        config = self.slo_config(tmp_path)
        assert main(["slo", "--slo", str(config)]) == EXIT_CONFIG_ERROR
        assert main(["slo", "--slo", str(config), "--measure",
                     "--reqtrace", "x.jsonl"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "exactly one input" in err

    def test_bad_config_and_artifact_map_to_exit_2(self, capsys,
                                                   tmp_path):
        config = self.slo_config(tmp_path)
        assert main(["slo", "--slo", str(tmp_path / "absent.json"),
                     "--measure"]) == EXIT_CONFIG_ERROR
        assert main(["slo", "--slo", str(config), "--reqtrace",
                     str(tmp_path / "absent.jsonl")]) == EXIT_CONFIG_ERROR
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        assert main(["slo", "--slo", str(bad),
                     "--measure"]) == EXIT_CONFIG_ERROR
        capsys.readouterr()

    def test_default_config_ships_and_passes(self, capsys):
        # scenarios/slo_default.json is the CI smoke's config; it must
        # keep passing against the default probe.
        assert main(["slo", "--slo", "scenarios/slo_default.json",
                     "--measure", "--mode", "shrink",
                     "--requests", "120", "--every", "4"]) == 0
        assert "all met" in capsys.readouterr().out


class TestReqtraceFlags:
    """--reqtrace-out / --slo sidecar on fleet and run."""

    def test_fleet_writes_reqtrace_sidecar(self, capsys, tmp_path):
        trace_path = tmp_path / "rt.jsonl"
        assert main(["fleet", "--devices", "4", "--blocks", "16",
                     "--years", "1", "--step-days", "30",
                     "--mode", "baseline", "--points", "3",
                     "--reqtrace-out", str(trace_path)]) == 0
        from repro.obs.reqtrace import (
            load_reqtrace,
            validate_reqtrace_records,
        )
        header, records = load_reqtrace(trace_path)
        assert header["meta"]["modes"] == ["baseline"]
        assert records
        validate_reqtrace_records(records)
        assert all(r["device_kind"] == "baseline" for r in records)
        assert "reqtrace ->" in capsys.readouterr().out

    def test_run_scenario_with_slo_report(self, capsys, tmp_path):
        config = TestSLOCommand.slo_config(tmp_path)
        assert main(["run", "scenarios/quick_fleet.json",
                     "--out", str(tmp_path),
                     "--slo", str(config)]) == 0
        out = capsys.readouterr().out
        assert "SLO report" in out

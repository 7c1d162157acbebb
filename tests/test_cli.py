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
from repro.obs import validate_metrics_document


def fleet_scenario(tmp_path, name="fleet", **fields) -> str:
    """A small fleet scenario written into ``tmp_path``; ``params`` and
    the other top-level ``fields`` override the defaults (the small
    fleet the retired ``repro fleet`` tests ran: 6 devices on 16 blocks,
    2 years, a 20-day step)."""
    params = {"devices": 6, "horizon_days": 730, "step_days": 20,
              "geometry": {"blocks": 16, "fpages_per_block": 64},
              **fields.pop("params", {})}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "kind": "fleet",
                                "seed": 2025, "params": params, **fields}))
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    @pytest.fixture
    def run(self, tmp_path, capsys):
        """What ``repro run`` prints for a shipped scenario file or a
        scenario document (written to a file first)."""
        def run(scenario):
            if isinstance(scenario, dict):
                path = tmp_path / "scenario.json"
                path.write_text(json.dumps(scenario))
                scenario = str(path)
            assert main(["run", scenario, "--out",
                         str(tmp_path / "out")]) == 0
            return capsys.readouterr().out
        return run

    # The experiments the print-only subcommands ran are `repro run`
    # scenarios now; tests/test_scenarios.py holds their numbers.
    @pytest.mark.parametrize("argv", [
        ["run", "scenarios/fig2.json"],
        ["run", "scenarios/fig2_ldpc.json"],
        ["run", "scenarios/carbon.json"],
        ["run", "scenarios/tco.json"],
        ["run", "scenarios/quick_fleet.json"],
    ])
    def test_fast_commands_run(self, argv, capsys, tmp_path):
        assert main([*argv, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_fig2_output_contains_levels(self, run):
        table = run("scenarios/fig2.json").split("== fig2 ==\n")[1]
        rows = [line.split("|") for line in table.splitlines()[2:]]
        assert [row[0].strip() for row in rows] == ["0", "1", "2", "3"]
        assert rows[1][-1].strip() == "0.5"  # the paper's L1 anchor

    def test_carbon_single_rate(self, run):
        out = run({"name": "c", "kind": "carbon",
                   "params": {"ru_shrink": 0.8}})
        assert "shrinks/renewable |     0.2" in out

    def test_tco_headline(self, run):
        out = run("scenarios/tco.json")
        assert "shrinks |   0.129" in out
        assert " regens |   0.258" in out

    def test_fleet_small_run(self, run):
        # `repro run` of a fleet scenario is the one fleet door.
        out = run({"name": "f", "kind": "fleet", "modes": ["baseline"],
                   "params": {"devices": 8, "horizon_days": 1460,
                              "step_days": 20,
                              "geometry": {"blocks": 32,
                                           "fpages_per_block": 64}}})
        assert "== summary ==" in out
        assert "baseline" in out

    def test_tournament_small_run(self, run):
        out = run({"name": "t", "kind": "tournament",
                   "params": {"blocks": 24, "pec_limit": 20}})
        assert "vs_baseline" in out and "regens" in out

    def test_replacement_small_run(self, run):
        out = run({"name": "r", "kind": "replacement",
                   "params": {"slots": 10, "horizon_years": 6,
                              "fleet": {"dwpd": 2.0, "step_days": 20,
                                        "geometry": {
                                            "blocks": 32,
                                            "fpages_per_block": 16}}}})
        assert "measured_ru" in out

    def test_run_scenario_command(self, capsys, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(
            {"name": "cli-fig2", "kind": "fig2",
             "params": {"pec_limit": 500}}))
        assert main(["run", str(scenario), "--out",
                     str(tmp_path / "artifacts")]) == 0
        out = capsys.readouterr().out
        assert "cli-fig2" in out
        assert (tmp_path / "artifacts" / "cli-fig2.json").exists()

    def test_health_small_run(self, run):
        out = run({"name": "h", "kind": "health",
                   "params": {"devices": 40, "dwpd": 3.0,
                              "max_days": 2500}})
        assert "predictor" in out
        assert "run-to-failure" in out

    def test_options_stay_at_most_23(self):
        # Every argument of every subcommand, positionals included.
        import argparse
        choices = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
        assert sorted(choices) == ["report", "run", "slo", "wear"]
        count = sum(not isinstance(action, argparse._HelpAction)
                    for sub in choices.values() for action in sub._actions)
        assert count <= 23, count


class TestVersionAndExitCodes:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()

    def test_config_error_maps_to_exit_2(self, capsys, tmp_path):
        # afr is a probability; 2.0 is a number but fails validation.
        scenario = fleet_scenario(tmp_path, params={"afr": 2.0})
        assert main(["run", scenario, "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG_ERROR
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
        monkeypatch.setattr("repro.cli._cmd_run", boom)
        assert main(["run", "scenarios/fig2.json"]) == EXIT_UNEXPECTED_ERROR
        err = capsys.readouterr().err
        assert "unexpected error" in err
        assert "RuntimeError" in err


class TestObservabilityFlags:
    def test_fleet_writes_metrics_and_trace(self, capsys, tmp_path):
        out = tmp_path / "run"
        scenario = fleet_scenario(tmp_path, modes=["regen"], params={
            "devices": 8,
            "geometry": {"blocks": 32, "fpages_per_block": 64}})
        assert main(["run", scenario, "--out", str(out)]) == 0
        assert context.current() == RunContext()  # the scope is gone
        document = json.loads((out / "metrics.json").read_text())
        validate_metrics_document(document)
        names = {family["name"] for family in document["metrics"]}
        assert "repro_fleet_step_duration_seconds" in names
        assert "repro_fleet_devices_functioning" in names
        assert "repro_shard_tick_seconds" in names   # the sharded runner
        records = [json.loads(line) for line in
                   (out / "trace.jsonl").read_text().splitlines()]
        times = [record["time"] for record in records]
        assert times == sorted(times)
        printed = capsys.readouterr().out
        assert str(out / "metrics.json") in printed
        assert str(out / "trace.jsonl") in printed

    def test_run_embeds_metrics_in_artifact(self, capsys, tmp_path):
        # metrics.json is a scenario's one copy of its metrics; the
        # experiment artifact embeds none.
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(
            {"name": "cli-obs", "kind": "fig2",
             "params": {"pec_limit": 500}}))
        out = tmp_path / "artifacts"
        assert main(["run", str(scenario), "--out", str(out)]) == 0
        artifact = json.loads((out / "cli-obs.json").read_text())
        assert sorted(artifact) == ["experiment", "meta", "series",
                                    "tables"]
        validate_metrics_document(
            json.loads((out / "metrics.json").read_text()))

    def test_flags_off_means_no_observability_cost(self, capsys, tmp_path,
                                                   monkeypatch):
        # A command with no observability sinks runs under the default
        # context: nothing scoped, nothing written.
        monkeypatch.chdir(tmp_path)
        seen = []
        monkeypatch.setattr("repro.cli._cmd_report",
                            lambda args: seen.append(context.current()) or 0)
        assert main(["report"]) == 0
        assert seen == [RunContext()]
        assert context.current() == RunContext()
        assert not list(tmp_path.iterdir())


class TestTimeseriesFlag:
    def test_fleet_writes_timeseries(self, capsys, tmp_path):
        out = tmp_path / "run"
        scenario = fleet_scenario(tmp_path, params={
            "devices": 8,
            "geometry": {"blocks": 32, "fpages_per_block": 64}})
        assert main(["run", scenario, "--out", str(out)]) == 0
        assert context.current() == RunContext()  # the scope is gone
        from repro.obs import load_timeseries
        # Validates on load.
        document = load_timeseries(out / "timeseries.jsonl")
        names = {entry["name"] for entry in document["series"]}
        assert "repro_fleet_capacity_bytes" in names
        assert "repro_fleet_mean_lifetime_days" in names
        assert "repro_smart_wear_percentile" in names
        modes = {entry["labels"].get("mode")
                 for entry in document["series"]}
        assert {"baseline", "shrink", "regen"} <= modes
        assert str(out / "timeseries.jsonl") in capsys.readouterr().out

    def test_timeseries_cadence_thins_samples(self, tmp_path):
        dense = tmp_path / "dense"
        sparse = tmp_path / "sparse"
        argv = ["run", fleet_scenario(
            tmp_path, modes=["baseline"], params={
                "devices": 4, "step_days": 10,
                "geometry": {"blocks": 32, "fpages_per_block": 64}})]
        assert main(argv + ["--out", str(dense)]) == 0
        assert main(argv + ["--out", str(sparse),
                            "--timeseries-cadence", "100"]) == 0
        from repro.obs import load_timeseries, series_from_document
        dense_t, _ = series_from_document(
            load_timeseries(dense / "timeseries.jsonl"),
            "repro_fleet_devices_functioning")
        sparse_t, _ = series_from_document(
            load_timeseries(sparse / "timeseries.jsonl"),
            "repro_fleet_devices_functioning")
        assert len(sparse_t) < len(dense_t)


    def test_run_embeds_timeseries_in_artifact(self, capsys, tmp_path):
        # timeseries.jsonl is a scenario's one copy of its timeseries;
        # the experiment artifact embeds none.
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            "name": "cli-ts", "kind": "fleet",
            "params": {"devices": 4, "horizon_days": 400,
                       "step_days": 20,
                       "geometry": {"blocks": 32,
                                    "fpages_per_block": 64}},
        }))
        out = tmp_path / "artifacts"
        assert main(["run", str(scenario), "--out", str(out)]) == 0
        artifact = json.loads((out / "cli-ts.json").read_text())
        assert "timeseries" not in artifact
        from repro.obs import load_timeseries
        # Validates on load.
        assert load_timeseries(out / "timeseries.jsonl")["series"]


class TestReportCommand:
    @staticmethod
    def _write_timeseries(run_dir, lifetimes):
        lines = [json.dumps({"schema": "repro.obs.timeseries/v1",
                             "cadence": 0.0, "capacity": 4096,
                             "samples_taken": 1})]
        for mode, value in lifetimes.items():
            lines.append(json.dumps({
                "name": "repro_fleet_mean_lifetime_days",
                "labels": {"mode": mode}, "unit": "days",
                "kind": "gauge", "resolution": 0.0, "downsamples": 0,
                "t": [100.0], "v": [value]}))
        run_dir.mkdir(exist_ok=True)
        (run_dir / "timeseries.jsonl").write_text("\n".join(lines) + "\n")

    def test_report_passes_on_healthy_timeseries(self, capsys, tmp_path):
        self._write_timeseries(tmp_path, {"baseline": 400.0,
                                          "shrink": 520.0,
                                          "regen": 600.0})
        assert main(["report", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema"] == "repro.report/v1"
        assert report["summary"]["fail"] == 0
        assert report["inputs"] == {
            "metrics": False, "timeseries": True, "trace": False,
            "artifact": False, "endurance": False}
        by_claim = {c["claim"]: c for c in report["claims"]}
        assert by_claim["lifetime_extension/shrink"]["status"] == "pass"
        assert by_claim["throughput_degradation/L2"]["status"] == "pass"
        assert "| claim |" in (tmp_path / "report.md").read_text()

    def test_report_claim_failure_exits_1(self, capsys, tmp_path):
        self._write_timeseries(tmp_path, {"baseline": 400.0,
                                          "shrink": 100.0,
                                          "regen": 600.0})
        assert main(["report", str(tmp_path)]) == EXIT_CLAIM_FAILED
        assert "FAILED" in capsys.readouterr().err
        assert "`lifetime_extension/shrink` | fail" in \
            (tmp_path / "report.md").read_text()

    def test_report_prints_markdown_by_default(self, capsys, tmp_path,
                                               monkeypatch):
        # No DIR: the self-measuring claims, printed; nothing written.
        monkeypatch.chdir(tmp_path)
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "## Salamander claim check" in out
        assert "| claim | status |" in out
        assert not list(tmp_path.iterdir())

    def test_missing_metrics_exits_2(self, capsys, tmp_path):
        # The run directory itself is missing; a missing file in one
        # that exists is an input the report skips.
        assert main(["report", str(tmp_path / "nope")]) \
            == EXIT_CONFIG_ERROR
        assert "not found" in capsys.readouterr().err

    def test_corrupt_metrics_exits_2(self, capsys, tmp_path):
        (tmp_path / "metrics.json").write_text("{not json")
        assert main(["report", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert "not valid JSON" in capsys.readouterr().err

    def test_corrupt_timeseries_exits_2(self, capsys, tmp_path):
        (tmp_path / "timeseries.jsonl").write_text("{broken\n")
        assert main(["report", str(tmp_path)]) == EXIT_CONFIG_ERROR

    def test_bad_tolerance_exits_2(self, capsys, tmp_path):
        assert main(["report", "--tolerance", "1.5"]) \
            == EXIT_CONFIG_ERROR


class TestSweepCommand:
    """A fleet scenario with ``"runs"``: the multi-seed sweep, run by
    ``repro run`` (the door ``repro sweep`` was)."""

    @staticmethod
    def sweep(tmp_path, **fields):
        return fleet_scenario(tmp_path, "sweep", **{"runs": 2, **fields})

    def test_jobs_do_not_change_artifact_bytes(self, capsys, tmp_path):
        """`--jobs 2` must emit the same bytes as `--jobs 1` — the CLI
        face of the parallel runner's determinism contract."""
        j1, j2 = tmp_path / "j1", tmp_path / "j2"
        scenario = self.sweep(tmp_path)
        assert main(["run", scenario, "--jobs", "1", "--out", str(j1)]) == 0
        assert main(["run", scenario, "--jobs", "2", "--out", str(j2)]) == 0
        assert (j1 / "sweep.json").read_bytes() == \
            (j2 / "sweep.json").read_bytes()
        out = capsys.readouterr().out
        assert "== by_mode ==" in out

    def test_artifact_validates_and_covers_grid(self, capsys, tmp_path):
        from repro.sim.parallel import derive_seeds

        assert main(["run", self.sweep(tmp_path),
                     "--out", str(tmp_path)]) == 0
        document = json.loads((tmp_path / "sweep.json").read_text())
        assert document["meta"]["runs"] == 2
        seeds = derive_seeds(2025, 2)
        assert sorted(document["series"]) == sorted(
            f"{mode}/{seed}/{curve}"
            for mode in ("baseline", "cvss", "shrink", "regen")
            for seed in seeds for curve in ("functioning", "capacity"))
        rows = document["tables"]["by_mode"]["rows"]
        assert [row[:2] for row in rows] == [
            ["baseline", 2], ["cvss", 2], ["shrink", 2], ["regen", 2]]

    def test_single_mode_sweep(self, capsys, tmp_path):
        assert main(["run", self.sweep(tmp_path, modes=["regen"], runs=1),
                     "--out", str(tmp_path)]) == 0
        document = json.loads((tmp_path / "sweep.json").read_text())
        assert [row[0] for row in
                document["tables"]["by_mode"]["rows"]] == ["regen"]

    def test_bad_jobs_maps_to_exit_2(self, capsys, tmp_path):
        assert main(["run", self.sweep(tmp_path), "--jobs", "-2",
                     "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
        assert "configuration error" in capsys.readouterr().err

    def test_explicit_jobs_leave_no_meta(self, capsys, tmp_path):
        # No worker count reaches the document, so the jobs-invariance
        # byte-identity gates keep holding; 0 is all cores.
        for jobs in ("2", "0"):
            out = tmp_path / jobs
            assert main(["run", self.sweep(tmp_path), "--jobs", jobs,
                         "--out", str(out)]) == 0
            meta = json.loads((out / "sweep.json").read_text())["meta"]
            assert sorted(meta) == ["kind", "params", "runs", "seed"]

    def test_jobs_gibberish_rejected_by_parser(self, tmp_path):
        # --jobs is an int; 0 (not 'auto') asks for all cores.
        for jobs in ("fast", "auto"):
            with pytest.raises(SystemExit):
                main(["run", self.sweep(tmp_path), "--jobs", jobs,
                      "--out", str(tmp_path)])


class TestFleetShards:
    """A fleet scenario's ``params.shards``: the sharded runner through
    ``repro run``, ``--jobs`` its worker count."""

    @staticmethod
    def _fleet(out):
        return (out / "fleet.json").read_bytes()

    @staticmethod
    def _run(tmp_path, out, *flags, **params):
        return main(["run", fleet_scenario(tmp_path, params=params),
                     *flags, "--out", str(out)])

    def test_single_shard_matches_serial_bytes(self, capsys, tmp_path):
        serial, sharded = tmp_path / "serial", tmp_path / "s1"
        assert self._run(tmp_path, serial) == 0
        assert self._run(tmp_path, sharded, "--jobs", "2", shards=1) == 0
        # The same document but for the echoed knob.
        documents = [json.loads(self._fleet(out))
                     for out in (serial, sharded)]
        assert documents[1]["meta"]["params"].pop("shards") == 1
        assert documents[0] == documents[1]

    def test_jobs_do_not_change_artifact_bytes(self, capsys, tmp_path):
        j1, j4 = tmp_path / "j1", tmp_path / "j4"
        assert self._run(tmp_path, j1, "--jobs", "1", shards=4) == 0
        assert self._run(tmp_path, j4, "--jobs", "4", shards=4) == 0
        assert self._fleet(j1) == self._fleet(j4)

    def test_shards_recorded_in_config(self, capsys, tmp_path):
        assert self._run(tmp_path, tmp_path, shards=2) == 0
        meta = json.loads(self._fleet(tmp_path))["meta"]
        assert meta["params"]["shards"] == 2

    def test_bad_shards_maps_to_exit_2(self, capsys, tmp_path):
        assert self._run(tmp_path, tmp_path, shards=0) == EXIT_CONFIG_ERROR
        assert "configuration error" in capsys.readouterr().err

    def test_fault_plan_on_one_shard_is_silent_and_identical(
            self, capsys, tmp_path, recwarn):
        # A plan forces the one-shard layout; an omitted shards and
        # shards 1 already are that layout, so neither warns.
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "schema": "repro.faults/v1",
            "events": [{"site": "fleet.step", "fault": "device_loss",
                        "when": 4, "args": {"devices": 2}}]}))
        omitted, one = tmp_path / "omitted", tmp_path / "s1"
        assert self._run(tmp_path, omitted, "--faults", str(plan)) == 0
        assert self._run(tmp_path, one, "--faults", str(plan),
                         shards=1) == 0
        assert not [w for w in recwarn.list
                    if issubclass(w.category, RuntimeWarning)]
        series = [json.loads(self._fleet(out))["series"]
                  for out in (omitted, one)]
        assert series[0] == series[1]
        assert json.loads(self._fleet(one))["meta"]["faults"] is not None
        with pytest.warns(RuntimeWarning, match="fault plan"):
            assert self._run(tmp_path, tmp_path / "s3", "--faults",
                             str(plan), shards=3) == 0


def traffic_scenario(tmp_path, name="traffic", **fields) -> str:
    """A small traffic scenario written into ``tmp_path``; ``params`` and
    the other top-level ``fields`` override the defaults (the fast run
    the retired ``repro traffic`` tests ran: 12 tenants for 4000 us on
    one cell)."""
    params = {"tenants": 12, "duration_us": 4000.0, "cells": 1,
              **fields.pop("params", {})}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "kind": "traffic",
                                "params": params, **fields}))
    return str(path)


class TestTrafficCommand:
    """`repro run` of a traffic scenario: the multi-tenant engine, its
    engine/v1 document written out as tables."""

    @staticmethod
    def _run(tmp_path, out, jobs=1, **fields):
        return main(["run", traffic_scenario(tmp_path, **fields),
                     "--jobs", str(jobs), "--out", str(out)])

    def test_writes_validated_artifact(self, capsys, tmp_path):
        assert self._run(tmp_path, tmp_path) == 0
        document = json.loads((tmp_path / "traffic.json").read_text())
        assert document["meta"]["config"]["tenants"] == 12
        totals = document["tables"]["totals"]
        assert dict(zip(totals["headers"], totals["rows"][0]))[
            "offered"] > 0
        assert {"tenants", "cells", "by_class", "totals"} == \
            set(document["tables"])
        printed = capsys.readouterr().out
        assert "traffic.json" in printed
        assert "median_p99_us" in printed

    def test_jobs_do_not_change_artifact_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "j1", tmp_path / "j2"
        assert self._run(tmp_path, a, jobs=1) == 0
        assert self._run(tmp_path, b, jobs=2) == 0
        assert (a / "traffic.json").read_bytes() == \
            (b / "traffic.json").read_bytes()

    def test_metrics_do_not_depend_on_jobs(self, capsys, tmp_path):
        # Cells run under the default run context on both paths, so no
        # cell device exports into the command's registry at --jobs 1.
        params = {"tenants": 48, "duration_us": 8000.0, "cells": 2,
                  "mode": "regen"}
        a, b = tmp_path / "j1", tmp_path / "j2"
        assert self._run(tmp_path, a, jobs=1, params=params) == 0
        assert self._run(tmp_path, b, jobs=2, params=params) == 0
        assert (a / "metrics.json").read_bytes() == \
            (b / "metrics.json").read_bytes()

    def test_shards_raise_resolved_cells(self, capsys, tmp_path):
        # shards guarantees at least that many failure-domain cells
        # (capped at the tenant count) and lands in the artifact config.
        assert self._run(tmp_path, tmp_path, jobs=2,
                         params={"cells": 0, "shards": 4}) == 0
        config = json.loads(
            (tmp_path / "traffic.json").read_text())["meta"]["config"]
        assert config["shards"] == 4
        assert config["resolved_cells"] == 4

    def test_slo_gates_exit_code(self, capsys, tmp_path):
        def slo(**kwargs):
            return json.loads(TestSLOCommand.slo_config(
                tmp_path, **kwargs).read_text())

        assert self._run(tmp_path, tmp_path / "ok", slo=slo()) == 0
        assert "VIOLATED" not in capsys.readouterr().err
        assert self._run(tmp_path, tmp_path / "bad",
                         slo=slo(threshold_us=0.001, name="impossible")) \
            == EXIT_CLAIM_FAILED
        assert capsys.readouterr().err == \
            "repro run: one or more SLOs VIOLATED\n"

    def test_metrics_out_publishes_traffic_families(self, capsys,
                                                    tmp_path):
        assert self._run(tmp_path, tmp_path) == 0
        names = {family["name"] for family in json.loads(
            (tmp_path / "metrics.json").read_text())["metrics"]}
        assert "repro_traffic_requests_total" in names
        assert "repro_traffic_p99_latency_us" in names
        assert "repro_traffic_tenants" in names

    def test_bad_utilisation_exits_2(self, capsys, tmp_path):
        assert self._run(tmp_path, tmp_path,
                         params={"utilisation": 0}) == EXIT_CONFIG_ERROR

    def test_missing_trace_exits_2(self, capsys, tmp_path):
        absent = tmp_path / "absent.trace"
        assert self._run(tmp_path, tmp_path,
                         params={"trace": str(absent)}) == EXIT_CONFIG_ERROR
        assert str(absent) in capsys.readouterr().err

    def test_trace_replay(self, capsys, tmp_path):
        from repro.workloads import Trace
        from repro.workloads.generators import Operation, OpType

        trace = Trace(n_lbas=8)
        for lba in range(8):
            trace.append(Operation(OpType.WRITE, lba, b"x" * 16))
        trace_path = trace.save(tmp_path / "t.trace")
        out = tmp_path / "replay"
        assert self._run(tmp_path, out,
                         params={"trace": str(trace_path)}) == 0
        document = json.loads((out / "traffic.json").read_text())
        assert document["meta"]["config"]["trace_ops"] == 8
        tenants = document["tables"]["tenants"]
        klass = tenants["headers"].index("class")
        assert all(row[klass] == "trace" for row in tenants["rows"])


class TestSLOCommand:
    """`repro slo`: probe-measured and offline SLO evaluation."""

    #: Small probe so the measured tests stay fast; deterministic for
    #: the default seed.
    MEASURE = ["slo", "--measure", "--mode", "baseline",
               "--requests", "120", "--every", "4"]

    @staticmethod
    def slo_config(tmp_path, threshold_us=1e9, name="read-p99"):
        path = tmp_path / f"{name}.slo.json"
        path.write_text(json.dumps({
            "schema": "repro.obs.slo/v1",
            "objectives": [{"name": name, "kind": "latency",
                            "op": "read", "percentile": 99.0,
                            "threshold_us": threshold_us,
                            "window_us": 1e9}]}))
        return path

    def test_measure_meets_generous_objective(self, capsys, tmp_path):
        config = self.slo_config(tmp_path)
        out = tmp_path / "run"
        assert main([*self.MEASURE, "--slo", str(config), str(out)]) == 0
        printed = capsys.readouterr().out
        assert "SLO report" in printed
        assert "all met" in printed
        assert "Latency attribution" in printed  # segments table printed
        report = json.loads((out / "slo.json").read_text())
        assert report["schema"] == "repro.obs.slo_report/v1"
        assert report["ok"]
        assert report["objectives"][0]["name"] == "baseline/read-p99"

    def test_violated_p99_exits_nonzero(self, capsys, tmp_path):
        # The acceptance criterion: an impossible threshold must gate
        # the exit code, not just print a sad table.
        config = self.slo_config(tmp_path, threshold_us=0.001)
        assert main([*self.MEASURE, "--slo", str(config),
                     str(tmp_path)]) == EXIT_CLAIM_FAILED
        captured = capsys.readouterr()
        assert "VIOLATED" in captured.err
        assert "**NO**" in captured.out

    def test_reqtrace_out_round_trips_offline(self, capsys, tmp_path):
        from repro.obs.reqtrace import (
            load_reqtrace,
            validate_reqtrace_records,
        )

        config = self.slo_config(tmp_path)
        out = tmp_path / "run"
        assert main([*self.MEASURE, "--slo", str(config), str(out)]) == 0
        header, records = load_reqtrace(out / "reqtrace.jsonl")
        assert header["meta"]["modes"] == ["baseline"]
        assert records
        validate_reqtrace_records(records)
        measured = (out / "slo.json").read_bytes()
        capsys.readouterr()
        # Offline evaluation of the artifact agrees: the same report
        # and exit 0 here, exit 1 under an impossible threshold.
        assert main(["slo", "--slo", str(config), str(out)]) == 0
        assert (out / "slo.json").read_bytes() == measured
        tight = self.slo_config(tmp_path, threshold_us=0.001)
        assert main(["slo", "--slo", str(tight), str(out)]) \
            == EXIT_CLAIM_FAILED

    def test_needs_exactly_one_input(self, capsys, tmp_path):
        # The one input is the run directory: none, or two, is a usage
        # error.
        config = str(self.slo_config(tmp_path))
        for argv in (["slo", "--slo", config],
                     ["slo", "--slo", config, "a", "b"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == EXIT_CONFIG_ERROR

    def test_bad_config_and_artifact_map_to_exit_2(self, capsys,
                                                   tmp_path):
        config = self.slo_config(tmp_path)
        assert main(["slo", "--slo", str(tmp_path / "absent.json"),
                     str(tmp_path), "--measure"]) == EXIT_CONFIG_ERROR
        assert main(["slo", "--slo", str(config),
                     str(tmp_path / "absent")]) == EXIT_CONFIG_ERROR
        assert main(["slo", "--slo", str(config),
                     str(tmp_path)]) == EXIT_CONFIG_ERROR
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        assert main(["slo", "--slo", str(bad), str(tmp_path),
                     "--measure"]) == EXIT_CONFIG_ERROR
        capsys.readouterr()

    def test_default_config_ships_and_passes(self, capsys, tmp_path):
        # scenarios/slo_default.json is the CI smoke's config; it must
        # keep passing against the default probe.
        assert main(["slo", "--slo", "scenarios/slo_default.json",
                     str(tmp_path), "--measure", "--mode", "shrink",
                     "--requests", "120", "--every", "4"]) == 0
        assert "all met" in capsys.readouterr().out

    def test_endurance_out_feeds_the_wear_provenance_rows(self, capsys,
                                                          tmp_path):
        from repro.obs.endurance import (
            load_endurance,
            validate_endurance_records,
        )
        from repro.reporting.claims import check_wear_provenance

        # Without an artifact the rows skip and name their one producer.
        hint = check_wear_provenance(None)[0].detail
        assert "`repro slo --slo CFG DIR --measure`" in hint
        config = self.slo_config(tmp_path)
        out = tmp_path / "run"
        assert main(["slo", "--slo", str(config), str(out), "--measure",
                     "--mode", "all", "--requests", "120",
                     "--every", "4"]) == 0
        assert "endurance ->" in capsys.readouterr().out
        _, records = load_endurance(out / "endurance.jsonl")
        validate_endurance_records(records)
        modes = {record["name"].split("/")[0] for record in records}
        assert {"baseline", "shrink"} <= modes
        assert main(["report", str(out)]) == 0
        claims = json.loads((out / "report.json").read_text())["claims"]
        wear = {c["claim"]: c["status"] for c in claims
                if c["claim"].startswith("wear_provenance/")}
        assert wear == dict.fromkeys(
            ["wear_provenance/waf_identity",
             "wear_provenance/cause_isolation",
             "wear_provenance/shrink_delta",
             "wear_provenance/regen_delta"], "pass")


class TestReqtraceFlags:
    """The reqtrace the fleet sidecar wrote comes from `slo --measure`."""

    def test_fleet_writes_reqtrace_sidecar(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "scenarios/quick_fleet.json",
                  "--reqtrace-out", str(tmp_path / "rt.jsonl")])
        assert excinfo.value.code == 2
        assert not list(tmp_path.iterdir())
        capsys.readouterr()
        out = tmp_path / "run"
        assert main([*TestSLOCommand.MEASURE,
                     "--slo", str(TestSLOCommand.slo_config(tmp_path)),
                     str(out)]) == 0
        from repro.obs.reqtrace import (
            load_reqtrace,
            validate_reqtrace_records,
        )
        header, records = load_reqtrace(out / "reqtrace.jsonl")
        assert header["meta"]["modes"] == ["baseline"]
        assert records
        validate_reqtrace_records(records)
        assert all(r["device_kind"] == "baseline" for r in records)
        assert "reqtrace ->" in capsys.readouterr().out

class TestProbeFlags:
    """The IO probe has one door: `repro slo --measure`."""

    @pytest.mark.parametrize("argv", [
        ["run", "scenarios/quick_fleet.json", "--reqtrace-out", "x.jsonl"],
        ["run", "scenarios/quick_fleet.json", "--endurance-out", "x.jsonl"],
        ["run", "scenarios/quick_fleet.json", "--slo", "y.json"],
        ["run", "scenarios/quick_fleet.json", "--endurance-out", "x.jsonl"],
    ], ids=["fleet-reqtrace-out", "fleet-endurance-out", "run-slo",
            "run-endurance-out"])
    def test_fleet_and_run_reject_probe_flags(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


#: (argv after ``repro``, the names it writes into DIR) — the run
#: directory's layout, one producer or reader per row. ``@`` is DIR,
#: ``@sweep`` a small fleet scenario with ``runs``, ``@traffic`` a small
#: traffic scenario; reader rows start from the probe's files.
_SWEEP = {"name": "sweep", "kind": "fleet", "runs": 1,
          "modes": ["baseline"],
          "params": {"devices": 4, "horizon_days": 365, "step_days": 50,
                     "geometry": {"blocks": 16, "fpages_per_block": 64}}}
_SLO = ["--slo", "scenarios/slo_default.json"]
_PROBE = ["--mode", "baseline", "--requests", "60", "--every", "4"]
LAYOUT = [
    (["run", "scenarios/quick_fleet.json", "--out", "@"],
     {"quick-fleet.json", "metrics.json", "trace.jsonl",
      "timeseries.jsonl"}),
    (["run", "scenarios/fig2_ldpc.json", "--out", "@"],
     {"fig2-ldpc.json", "metrics.json", "trace.jsonl",
      "timeseries.jsonl"}),
    (["run", "@traffic", "--out", "@"],
     {"traffic.json", "metrics.json", "trace.jsonl", "timeseries.jsonl"}),
    (["run", "@sweep", "--out", "@"],
     {"sweep.json", "metrics.json", "trace.jsonl", "timeseries.jsonl"}),
    (["slo", *_SLO, "@", "--measure", *_PROBE],
     {"reqtrace.jsonl", "endurance.jsonl", "slo.json"}),
    (["slo", *_SLO, "@"], {"slo.json"}),
    (["report", "@"], {"report.json", "report.md"}),
    (["wear", "report", "@"], {"wear.json"}),
    (["wear", "forecast", "@"], {"wear.json"}),
    (["wear", "diff", "@", "--against", "@"], {"wear.json"}),
]


class TestRunDirectory:
    """Every command writes exactly its fixed names into its directory."""

    @pytest.fixture(scope="class")
    def probed(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("probed")
        assert main(["slo", *_SLO, str(root), "--measure", *_PROBE]) == 0
        return root

    @pytest.mark.parametrize("argv, names", LAYOUT, ids=[
        "fleet", "run", "traffic", "sweep", "slo --measure", "slo",
        "report", "wear report", "wear forecast", "wear diff"])
    def test_each_command_writes_exactly_its_names(self, argv, names,
                                                   tmp_path, probed,
                                                   capsys):
        out = tmp_path / "run"
        if argv[0] in ("slo", "report", "wear") and "--measure" not in argv:
            out.mkdir()
            for name in ("reqtrace.jsonl", "endurance.jsonl"):
                (out / name).write_bytes((probed / name).read_bytes())
        sweep = tmp_path / "sweep_scenario.json"
        sweep.write_text(json.dumps(_SWEEP))
        given = {"@": str(out), "@sweep": str(sweep),
                 "@traffic": traffic_scenario(
                     tmp_path, params={"tenants": 4, "duration_us": 400.0})}
        before = {path.name for path in out.glob("*")}
        assert main([given.get(part, part) for part in argv]) == 0
        assert {path.name for path in out.iterdir()} - before == names

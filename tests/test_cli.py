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

    def test_options_stay_at_most_9(self):
        # Every argument of every subcommand, positionals included.
        import argparse
        choices = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
        assert sorted(choices) == ["report", "run"]
        count = sum(not isinstance(action, argparse._HelpAction)
                    for sub in choices.values() for action in sub._actions)
        assert count <= 9, count


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
        # Four years, so that devices die and the trace records it.
        out = tmp_path / "run"
        scenario = fleet_scenario(tmp_path, modes=["regen"], params={
            "devices": 8, "horizon_days": 1460,
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
        assert records and times == sorted(times)
        printed = capsys.readouterr().out
        assert str(out / "metrics.json") in printed
        assert str(out / "trace.jsonl") in printed

    def test_run_embeds_metrics_in_artifact(self, capsys, tmp_path):
        # metrics.json is a scenario's one copy of its metrics; the
        # experiment artifact embeds none. (A fig2 scenario records no
        # metric, so it writes no metrics.json: TestRunDirectory.)
        out = tmp_path / "artifacts"
        assert main(["run", fleet_scenario(tmp_path, name="cli-obs",
                                           modes=["baseline"]),
                     "--out", str(out)]) == 0
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
        assert main(["report", str(tmp_path)]) == 0
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
    def _write_run(run_dir, lifetimes, capacities=None):
        """A fleet document with these mean lifetimes, and a timeseries
        of these capacity curves."""
        run_dir.mkdir(exist_ok=True)
        (run_dir / "fleet.json").write_text(json.dumps({
            "experiment": "fleet", "meta": {"kind": "fleet"}, "series": {},
            "tables": {"summary": {
                "headers": ["mode", "mean_lifetime_days", "recovery_bytes"],
                "rows": [[mode, days, 0.0]
                         for mode, days in lifetimes.items()]}}}))
        lines = [json.dumps({"schema": "repro.obs.timeseries/v1",
                             "cadence": 0.0, "capacity": 4096,
                             "samples_taken": 1})]
        for mode, values in (capacities or {}).items():
            lines.append(json.dumps({
                "name": "repro_fleet_capacity_bytes",
                "labels": {"mode": mode}, "unit": "bytes",
                "kind": "gauge", "resolution": 0.0, "downsamples": 0,
                "t": [float(t) for t in range(len(values))], "v": values}))
        (run_dir / "timeseries.jsonl").write_text("\n".join(lines) + "\n")

    def test_report_passes_on_healthy_timeseries(self, capsys, tmp_path):
        self._write_run(tmp_path, {"baseline": 400.0, "shrink": 520.0,
                                   "regen": 600.0},
                        {"baseline": [10.0, 10.0, 5.0],
                         "shrink": [10.0, 9.0, 8.0]})
        assert main(["report", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema"] == "repro.report/v1"
        assert report["summary"] == {"pass": 3, "fail": 0, "skip": 15}
        assert report["inputs"] == {
            "metrics": False, "timeseries": True, "trace": False,
            "endurance": False, "experiments": {"fleet.json": "fleet"}}
        by_claim = {c["claim"]: c for c in report["claims"]}
        assert by_claim["lifetime_extension/shrink"]["status"] == "pass"
        assert by_claim["recovery_traffic/shrink_vs_baseline"]["status"] \
            == "pass"
        assert by_claim["throughput_degradation/L2"]["status"] == "skip"
        assert "| claim |" in (tmp_path / "report.md").read_text()

    def test_report_claim_failure_exits_1(self, capsys, tmp_path):
        self._write_run(tmp_path, {"baseline": 400.0, "shrink": 100.0,
                                   "regen": 600.0})
        assert main(["report", str(tmp_path)]) == EXIT_CLAIM_FAILED
        assert "FAILED" in capsys.readouterr().err
        assert "`lifetime_extension/shrink` | fail" in \
            (tmp_path / "report.md").read_text()

    @pytest.mark.parametrize("argv", [["report"],
                                      ["report", "--against", "."]],
                             ids=["no DIR", "against no DIR"])
    def test_report_requires_a_dir(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "DIR" in capsys.readouterr().err

    def test_a_sweep_directory_feeds_the_lifetime_rows(self, capsys,
                                                      tmp_path):
        out = tmp_path / "run"
        scenario = fleet_scenario(tmp_path, runs=2, modes=[
            "baseline", "shrink", "regen"])
        assert main(["run", scenario, "--out", str(out)]) == 0
        assert main(["report", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        rows = [c for c in report["claims"]
                if c["claim"].startswith("lifetime_extension/")]
        assert [row["status"] for row in rows] == ["pass", "pass"]
        assert all("fleet/by_mode" in row["detail"] for row in rows)

    def test_the_shipped_set_answers_every_row(self, capsys, tmp_path):
        """fleet + probe + agreement in one directory: 18 rows, no skip,
        the §4.2 rows at the values the report measured itself before
        the agreement kind took the measurements over."""
        for name in ("fleet", "probe", "agreement"):
            assert main(["run", f"scenarios/{name}.json",
                         "--out", str(tmp_path)]) == 0
        assert main(["report", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["summary"] == {"pass": 18, "fail": 0, "skip": 0}
        observed = {c["claim"]: c["observed"] for c in report["claims"]}
        assert observed == {
            "lifetime_extension/shrink": 1.4149,
            "lifetime_extension/regen": 2.0,
            "throughput_degradation/L1": 0.7619,
            "throughput_degradation/L2": 0.5161,
            "throughput_degradation/L3": 0.2623,
            "queueing_latency/rho0.3": 72.81,
            "queueing_latency/rho0.5": 89.09,
            "queueing_latency/rho0.7": 131.22,
            "queueing_latency/c4_rho0.5": 63.71,
            "traffic_p99/l0": 362.99, "traffic_p99/l1": 338.95,
            "traffic_p99/l2": 441.14, "traffic_p99/l3": 832.17,
            "recovery_traffic/shrink_vs_baseline": 0.0741,
            "wear_provenance/waf_identity": 4.0,
            "wear_provenance/cause_isolation": 0.0,
            "wear_provenance/shrink_delta": 0.0204,
            "wear_provenance/regen_delta": 0.0204}

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
        assert main(["report", str(tmp_path), "--tolerance", "1.5"]) \
            == EXIT_CONFIG_ERROR

    #: What the retired ``repro wear report|forecast|diff`` wrote into
    #: ``wear.json`` over the two probe runs below (seed 2025 against 7).
    WEAR_ROWS = [
        ["baseline/wear0", 3036, 1.0270092226613965, 7.416666666666667, 9,
         {"gc": 82}],
        ["shrink/wear0", 3548, 1.0656708004509583, 9.166666666666666, 11,
         {"gc": 233}]]
    FORECAST_ROWS = [
        ["baseline/wear0", 0, 12.000000000000002, 7.416666666666667,
         0.0026709401709401706, 1716.000000000001],
        ["baseline/wear0", 1, 18.000000000000004, 7.416666666666667,
         0.0026709401709401706, 3962.4000000000015],
        ["baseline/wear0", 2, 21.596580426197235, 7.416666666666667,
         0.0026709401709401706, 5308.959711568245],
        ["baseline/wear0", 3, 24.31061939153849, 7.416666666666667,
         0.0026709401709401706, 6325.095900192012],
        ["shrink/wear0", 0, 12.000000000000002, 9.166666666666666,
         0.0026881720430107525, 1054.000000000001],
        ["shrink/wear0", 1, 18.000000000000004, 9.166666666666666,
         0.0026881720430107525, 3286.000000000002],
        ["shrink/wear0", 2, 21.596580426197235, 9.166666666666666,
         0.0026881720430107525, 4623.927918545372],
        ["shrink/wear0", 3, 24.31061939153849, 9.166666666666666,
         0.0026881720430107525, 5633.55041365232]]
    DELTA_ROWS = [["baseline/wear0", "-4", "+0.00", "-0.001", "gc-2"],
                  ["shrink/wear0", "+0", "+0.17", "+0.020", "gc+72"]]

    @pytest.fixture(scope="class")
    def probes(self, tmp_path_factory):
        """Two probe run directories, at seeds 2025 and 7."""
        root = tmp_path_factory.mktemp("probes")
        for seed in (2025, 7):
            scenario = probe_scenario(
                root, name=f"p{seed}", seed=seed,
                modes=["baseline", "shrink"],
                params={"requests": 400, "every": 16})
            assert main(["run", scenario, "--out", str(root / str(seed))]) \
                == 0
        return root

    def test_wear_tables_match_the_retired_wear_command(self, probes,
                                                        capsys):
        new, old = probes / "2025", probes / "7"
        assert main(["report", str(new), "--against", str(old)]) == 0
        report = json.loads((new / "report.json").read_text())
        assert report["wear"]["rows"] == self.WEAR_ROWS
        assert report["forecast"]["rows"] == self.FORECAST_ROWS
        assert report["wear_delta"]["rows"] == self.DELTA_ROWS
        markdown = (new / "report.md").read_text()
        assert "== wear_delta ==" in markdown and "gc+72" in markdown
        # Without --against, no delta table.
        assert main(["report", str(new)]) == 0
        assert "wear_delta" not in json.loads(
            (new / "report.json").read_text())

    @pytest.mark.parametrize("argv", [
        ["report", "@probe", "--against", "@bare"],
        ["report", "@bare", "--against", "@probe"],
    ], ids=["DIR2 without ledger", "DIR without ledger"])
    def test_against_needs_two_wear_ledgers(self, probes, tmp_path, capsys,
                                            argv):
        given = {"@probe": str(probes / "2025"), "@bare": str(tmp_path)}
        assert main([given.get(part, part) for part in argv]) \
            == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(tmp_path / "endurance.jsonl") in err, err
        assert not (tmp_path / "report.json").exists()


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

    def test_trace_file_is_read_once(self, capsys, tmp_path, monkeypatch):
        # One `repro run` builds the scenario's config once: its trace
        # file is read once, not at load, at validation and at the run.
        from repro.workloads import Trace
        from repro.workloads.generators import Operation, OpType

        trace = Trace(n_lbas=8)
        trace.append(Operation(OpType.WRITE, 1, b"x"))
        trace_path = trace.save(tmp_path / "t.trace")
        load, calls = Trace.load, []
        monkeypatch.setattr(Trace, "load", classmethod(
            lambda cls, path: calls.append(path) or load(path)))
        assert self._run(tmp_path, tmp_path / "out",
                         params={"trace": str(trace_path)}) == 0
        assert calls == [str(trace_path)]

    def test_slo_gates_exit_code(self, capsys, tmp_path):
        slo = TestSLOCommand.slo_config

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


def probe_scenario(tmp_path, name="probe", **fields) -> str:
    """A small probe scenario written into ``tmp_path``; ``params`` and
    the other top-level ``fields`` override the defaults (what the
    retired ``repro slo --measure --mode baseline --requests 120 --every
    4`` ran)."""
    params = {"requests": 120, "every": 4, **fields.pop("params", {})}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "kind": "probe",
                                "modes": ["baseline"], "params": params,
                                **fields}))
    return str(path)


class TestSLOCommand:
    """`repro run` of a probe scenario: the request-traced IO probe, its
    embedded objectives evaluated per device kind."""

    @staticmethod
    def slo_config(threshold_us=1e9, name="read-p99") -> dict:
        return {"schema": "repro.obs.slo/v1",
                "objectives": [{"name": name, "kind": "latency",
                                "op": "read", "percentile": 99.0,
                                "threshold_us": threshold_us,
                                "window_us": 1e9}]}

    @staticmethod
    def rows(out, name="probe", table="slo") -> list[dict]:
        table = json.loads((out / f"{name}.json").read_text())[
            "tables"][table]
        return [dict(zip(table["headers"], row)) for row in table["rows"]]

    def test_measure_meets_generous_objective(self, capsys, tmp_path):
        out = tmp_path / "run"
        assert main(["run", probe_scenario(tmp_path, slo=self.slo_config()),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "== slo ==" in printed
        assert "== segments ==" in printed  # the latency attribution
        [row] = self.rows(out)
        assert (row["device_kind"], row["name"]) == ("baseline",
                                                     "read-p99")
        assert row["ok"] and row["observed"] > 0
        cohorts = self.rows(out, table="segments")
        assert [cohort["cohort"] for cohort in cohorts] == \
            ["all", "p50", "p99"]
        assert cohorts[0]["queue_wait"] > 0

    def test_violated_p99_exits_nonzero(self, capsys, tmp_path):
        # The acceptance criterion: an impossible threshold must gate
        # the exit code, not just print a sad table.
        scenario = probe_scenario(
            tmp_path, slo=self.slo_config(threshold_us=0.001))
        assert main(["run", scenario, "--out", str(tmp_path)]) \
            == EXIT_CLAIM_FAILED
        assert capsys.readouterr().err == \
            "repro run: one or more SLOs VIOLATED\n"
        assert not self.rows(tmp_path)[0]["ok"]

    def test_reqtrace_out_round_trips_offline(self, capsys, tmp_path):
        from repro.obs.reqtrace import (
            load_reqtrace,
            validate_reqtrace_records,
        )
        from repro.obs.slo import evaluate_by_device, validate_slo_document

        out = tmp_path / "run"
        assert main(["run", probe_scenario(tmp_path, slo=self.slo_config()),
                     "--out", str(out)]) == 0
        header, records = load_reqtrace(out / "reqtrace.jsonl")
        assert header["meta"]["modes"] == ["baseline"]
        assert records
        validate_reqtrace_records(records)
        # Offline evaluation of the artifact agrees with the table, and
        # fails where an impossible threshold would.
        [row] = evaluate_by_device(
            records, validate_slo_document(self.slo_config()))
        filters = row.pop("filters")
        assert self.rows(out) == [{
            **row, **{f"filters_{key}": value
                      for key, value in filters.items()}}]
        [tight] = evaluate_by_device(records, validate_slo_document(
            self.slo_config(threshold_us=0.001)))
        assert not tight["ok"]

    def test_needs_exactly_one_input(self, capsys, tmp_path):
        # The one input is the scenario: none, or two, is a usage error.
        scenario = probe_scenario(tmp_path)
        for argv in (["run"], ["run", scenario, scenario]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == EXIT_CONFIG_ERROR

    def test_bad_config_and_artifact_map_to_exit_2(self, capsys,
                                                   tmp_path):
        for fields in ({"slo": {"schema": "nope"}},
                       {"slo": self.slo_config(threshold_us=-1.0)},
                       {"modes": ["baseline", "flat"]},
                       {"modes": []},
                       {"params": {"evry": 4}},
                       {"runs": 2},
                       {"faults": {"schema": "repro.faults/v1",
                                   "events": []}}):
            assert main(["run", probe_scenario(tmp_path, **fields),
                         "--out", str(tmp_path / "out")]) \
                == EXIT_CONFIG_ERROR, fields
            assert capsys.readouterr().err.startswith(
                "repro: configuration error: ")
        assert not (tmp_path / "out").exists()

    def test_default_config_ships_and_passes(self, capsys, tmp_path):
        # scenarios/slo_default.json is the probe at its defaults with
        # three objectives; it must keep passing.
        assert main(["run", "scenarios/slo_default.json",
                     "--out", str(tmp_path)]) == 0
        rows = self.rows(tmp_path, "slo-default")
        assert len(rows) == 4 * 3 and all(row["ok"] for row in rows)

    def test_endurance_out_feeds_the_wear_provenance_rows(self, capsys,
                                                          tmp_path):
        from repro.obs.endurance import (
            load_endurance,
            validate_endurance_records,
        )
        from repro.reporting.claims import check_wear_provenance

        # Without an artifact the rows skip and name their one producer.
        hint = check_wear_provenance(None)[0].detail
        assert "`repro run scenarios/probe.json --out DIR`" in hint
        out = tmp_path / "run"
        scenario = probe_scenario(tmp_path, modes=["baseline", "cvss",
                                                   "shrink", "regen"])
        assert main(["run", scenario, "--out", str(out)]) == 0
        assert "endurance.jsonl ->" in capsys.readouterr().out
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
    """The reqtrace the fleet sidecar wrote comes from a probe scenario."""

    def test_fleet_writes_reqtrace_sidecar(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "scenarios/quick_fleet.json",
                  "--reqtrace-out", str(tmp_path / "rt.jsonl")])
        assert excinfo.value.code == 2
        assert not list(tmp_path.iterdir())
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(["run", probe_scenario(tmp_path),
                     "--out", str(out)]) == 0
        from repro.obs.reqtrace import (
            load_reqtrace,
            validate_reqtrace_records,
        )
        header, records = load_reqtrace(out / "reqtrace.jsonl")
        assert header["meta"]["modes"] == ["baseline"]
        assert records
        validate_reqtrace_records(records)
        assert all(r["device_kind"] == "baseline" for r in records)
        assert "reqtrace.jsonl ->" in capsys.readouterr().out


class TestProbeFlags:
    """The IO probe has one door, a probe scenario of `repro run`: its
    mode, seed, sampling and window are the scenario's ``modes``,
    ``seed`` and ``params``, not flags."""

    @pytest.mark.parametrize("argv", [
        ["run", "scenarios/quick_fleet.json", "--reqtrace-out", "x.jsonl"],
        ["run", "scenarios/quick_fleet.json", "--endurance-out", "x.jsonl"],
        ["run", "scenarios/quick_fleet.json", "--slo", "y.json"],
        ["run", "scenarios/quick_fleet.json", "--endurance-out", "x.jsonl"],
        ["run", "scenarios/probe.json", "--measure"],
        ["run", "scenarios/probe.json", "--mode", "baseline"],
        ["run", "scenarios/probe.json", "--seed", "7"],
        ["run", "scenarios/probe.json", "--every", "4"],
        ["run", "scenarios/probe.json", "--requests", "100"],
    ], ids=["fleet-reqtrace-out", "fleet-endurance-out", "run-slo",
            "run-endurance-out", "run-measure", "run-mode", "run-seed",
            "run-every", "run-requests"])
    def test_fleet_and_run_reject_probe_flags(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


#: (argv after ``repro``, the probe's files DIR starts with, the names
#: it writes into DIR) — the run directory's layout, one producer or
#: reader per row. ``@`` is DIR, ``@other`` a second directory that
#: starts with the same files, ``@sweep`` a small fleet scenario with
#: ``runs``, ``@traffic`` a small traffic scenario, ``@probe`` a small
#: probe scenario. A run writes a sink file only if the sink recorded
#: something: fig2 and a sweep record nothing, traffic only metrics.
_SWEEP = {"name": "sweep", "kind": "fleet", "runs": 1,
          "modes": ["baseline"],
          "params": {"devices": 4, "horizon_days": 365, "step_days": 50,
                     "geometry": {"blocks": 16, "fpages_per_block": 64}}}
_PROBE = {"params": {"requests": 60, "every": 4}}
_PROBED = {"reqtrace.jsonl", "endurance.jsonl"}
_REPORT = {"report.json", "report.md"}
LAYOUT = [
    (["run", "scenarios/quick_fleet.json", "--out", "@"], set(),
     {"quick-fleet.json", "metrics.json", "trace.jsonl",
      "timeseries.jsonl"}),
    (["run", "scenarios/fig2_ldpc.json", "--out", "@"], set(),
     {"fig2-ldpc.json"}),
    (["run", "@traffic", "--out", "@"], set(),
     {"traffic.json", "metrics.json"}),
    (["run", "@sweep", "--out", "@"], set(), {"sweep.json"}),
    (["run", "@probe", "--out", "@"], set(),
     {"probe.json", "reqtrace.jsonl", "endurance.jsonl"}),
    (["run", "scenarios/agreement.json", "--out", "@"], set(),
     {"agreement.json"}),
    (["report", "@"], _PROBED, _REPORT),
    (["report", "@"], {"endurance.jsonl"}, _REPORT),
    (["report", "@", "--against", "@"], _PROBED, _REPORT),
    (["report", "@", "--against", "@other"], {"endurance.jsonl"},
     _REPORT),
]


class TestRunDirectory:
    """Every command writes exactly its fixed names into its directory."""

    @pytest.fixture(scope="class")
    def probed(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("probed")
        scenario = probe_scenario(tmp_path_factory.mktemp("scenario"),
                                  **_PROBE)
        assert main(["run", scenario, "--out", str(root)]) == 0
        return root

    @pytest.mark.parametrize("argv, inputs, names", LAYOUT, ids=[
        "fleet", "run", "traffic", "sweep", "probe", "agreement", "report",
        "report endurance", "report against", "report against other"])
    def test_each_command_writes_exactly_its_names(self, argv, inputs,
                                                   names, tmp_path,
                                                   probed, capsys):
        out, other = tmp_path / "run", tmp_path / "other"
        for directory in (out, other) if inputs else ():
            directory.mkdir()
            for name in inputs:
                (directory / name).write_bytes((probed / name).read_bytes())
        sweep = tmp_path / "sweep_scenario.json"
        sweep.write_text(json.dumps(_SWEEP))
        given = {"@": str(out), "@other": str(other), "@sweep": str(sweep),
                 "@traffic": traffic_scenario(
                     tmp_path, params={"tenants": 4, "duration_us": 400.0}),
                 "@probe": probe_scenario(tmp_path, **_PROBE)}
        before = {path.name for path in out.glob("*")}
        assert main([given.get(part, part) for part in argv]) == 0
        assert {path.name for path in out.iterdir()} - before == names
        # --against only reads DIR2.
        if inputs:
            assert {path.name for path in other.iterdir()} == inputs

    def test_a_probe_leaves_a_fleet_runs_sinks_in_place(self, tmp_path,
                                                       capsys):
        # CI runs the fleet smoke, then the probe, into one directory:
        # the probe records into no sink, so it writes none.
        out = tmp_path / "run"
        assert main(["run", "scenarios/quick_fleet.json",
                     "--out", str(out)]) == 0
        sinks = {name: (out / name).read_bytes() for name in
                 ("metrics.json", "trace.jsonl", "timeseries.jsonl")}
        assert all(sinks.values())
        assert main(["run", probe_scenario(tmp_path, **_PROBE),
                     "--out", str(out)]) == 0
        assert {name: (out / name).read_bytes() for name in sinks} == sinks
        assert (out / "reqtrace.jsonl").exists()

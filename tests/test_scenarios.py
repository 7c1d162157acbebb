"""Tests for the declarative scenario runner."""

import ast
import functools
import json
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.scenarios import (
    SCENARIO_KINDS,
    load_scenario,
    run_scenario,
    validate_scenario,
)


ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


@functools.cache
def shipped_document(name: str) -> dict:
    """The artifact document of a shipped scenario file, run once."""
    return run_scenario(load_scenario(SCENARIOS / name)).document()


def shipped(name: str) -> dict:
    """The tables of a shipped scenario file, run."""
    return shipped_document(name)["tables"]


class TestValidation:
    def test_requires_name_and_kind(self):
        with pytest.raises(ConfigError):
            validate_scenario({"kind": "fleet"})
        with pytest.raises(ConfigError):
            validate_scenario({"name": "x", "kind": "teleport"})
        with pytest.raises(ConfigError):
            validate_scenario({"name": "x", "kind": "fleet", "params": 3})
        with pytest.raises(ConfigError):
            validate_scenario([1, 2])

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"name": "s", "kind": "carbon"}))
        assert load_scenario(path)["kind"] == "carbon"

    def test_all_kinds_have_runners(self):
        from repro.scenarios import _RUNNERS
        assert set(_RUNNERS) == set(SCENARIO_KINDS)


class TestRunners:
    def test_fig2(self, tmp_path):
        writer = run_scenario({"name": "f2", "kind": "fig2",
                               "params": {"pec_limit": 1000}})
        path = writer.write(tmp_path)
        document = json.loads(path.read_text())
        rows = document["tables"]["fig2"]["rows"]
        assert rows[1][5] == pytest.approx(0.5, abs=1e-6)  # L1 gain

    def test_fig2_l1_anchor(self):
        # The paper's anchor: L1 keeps 3/4 of the capacity for +50 % P/E.
        rows = shipped("fig2.json")["fig2"]["rows"]
        assert [row[0] for row in rows] == [0, 1, 2, 3]
        assert [f"{row[5]:+.0%}" for row in rows] == [
            "+0%", "+50%", "+80%", "+103%"]
        assert [f"{row[4]:.0f}" for row in rows] == [
            "3000", "4500", "5399", "6078"]

    def test_carbon(self):
        writer = run_scenario({"name": "c", "kind": "carbon"})
        rows = dict(writer.document()["tables"]["fig4"]["rows"])
        assert rows["regens/renewable"] == pytest.approx(0.2)
        assert dict(shipped("carbon.json")["fig4"]["rows"]) == rows

    def test_carbon_one_rate_with_renewables(self):
        # Eq. 3 at Ru 0.8 with a renewable operational mix: +20.0 %.
        writer = run_scenario({"name": "c", "kind": "carbon",
                               "params": {"ru_shrink": 0.8}})
        rows = dict(writer.document()["tables"]["fig4"]["rows"])
        assert f"{rows['shrinks/renewable']:+.1%}" == "+20.0%"

    def test_tco(self):
        rows = {row[0]: row[1] for row in shipped("tco.json")["tco"]["rows"]}
        assert f"{rows['shrinks']:+.1%}" == "+12.9%"
        assert f"{rows['regens']:+.1%}" == "+25.8%"

    def test_fleet_small(self):
        writer = run_scenario({
            "name": "fl", "kind": "fleet", "seed": 3,
            "params": {"devices": 8, "horizon_days": 800, "step_days": 40,
                       "pec_limit_l0": 300,
                       "geometry": {"blocks": 32, "fpages_per_block": 16}},
            "modes": ["baseline", "regen"],
        })
        document = writer.document()
        assert "baseline/functioning" in document["series"]
        summary = {row[0]: row[1]
                   for row in document["tables"]["summary"]["rows"]}
        assert summary["regen"] > summary["baseline"]

    def test_fleet_walks_its_shards(self):
        # The kind runs the sharded runner: params.shards is honoured bit
        # for bit, and four shards sum capacity in another float order
        # than one (allclose only, docs/SHARDING.md).
        import numpy as np

        from repro.flash.geometry import FlashGeometry
        from repro.sim.fleet import FleetConfig
        from repro.sim.shard import simulate_fleet_sharded

        params = {"devices": 12, "horizon_days": 1500, "step_days": 20,
                  "pec_limit_l0": 300.0,
                  "geometry": {"blocks": 32, "fpages_per_block": 16}}
        config = FleetConfig(devices=12, horizon_days=1500, step_days=20,
                             pec_limit_l0=300.0,
                             geometry=FlashGeometry(blocks=32,
                                                    fpages_per_block=16))
        capacity = {}
        for shards in (1, 4):
            series = run_scenario({
                "name": "fl", "kind": "fleet", "seed": 3, "modes": ["regen"],
                "params": {**params, "shards": shards}}).document()["series"]
            expected = simulate_fleet_sharded(config, "regen", 3,
                                              shards=shards)
            assert series["regen/capacity"]["y"] == \
                expected.capacity_bytes.tolist()
            assert series["regen/functioning"]["y"] == \
                expected.functioning.tolist()
            capacity[shards] = np.array(series["regen/capacity"]["y"])
        assert not np.array_equal(capacity[1], capacity[4])
        np.testing.assert_allclose(capacity[1], capacity[4])

    def test_runs_is_a_positive_count_on_a_fleet(self):
        for document in ({"name": "c", "kind": "carbon", "runs": 2},
                         {"name": "f", "kind": "fleet", "runs": 0},
                         {"name": "f", "kind": "fleet", "runs": True},
                         {"name": "f", "kind": "fleet", "runs": 1.5}):
            with pytest.raises(ConfigError, match="runs"):
                validate_scenario(document)

    def test_fleet_rejects_unknown_params(self):
        with pytest.raises(ConfigError):
            run_scenario({"name": "bad", "kind": "fleet",
                          "params": {"warp_factor": 9}})

    def test_tournament_small(self):
        writer = run_scenario({
            "name": "tour", "kind": "tournament", "seed": 1,
            "params": {"blocks": 24, "pec_limit": 20},
        })
        table = writer.document()["tables"]["lifetimes"]
        assert table["headers"] == ["device", "host_writes", "vs_baseline",
                                    "mean_pec", "end_cause"]
        rows = {row[0]: row for row in table["rows"]}
        base = rows["baseline"][1]
        assert rows["baseline"][2] == 1.0
        for name, host_writes, vs_baseline, *_ in rows.values():
            assert vs_baseline == host_writes / base, name
        assert rows["regens"][2] > 1.0

    def test_replacement_small(self):
        writer = run_scenario({
            "name": "ru", "kind": "replacement", "seed": 9,
            "params": {"slots": 10, "horizon_years": 6,
                       "age_limit_years": 2,
                       "fleet": {"devices": 8, "dwpd": 1.0,
                                 "pec_limit_l0": 300, "step_days": 20,
                                 "geometry": {"blocks": 32,
                                              "fpages_per_block": 16}}},
        })
        rows = {row[0]: row[2]
                for row in writer.document()["tables"]
                ["upgrade_rates"]["rows"]}
        assert rows["regen"] < rows["baseline"]

    def test_health_small(self):
        writer = run_scenario({
            "name": "h", "kind": "health", "seed": 1,
            "params": {"devices": 40, "dwpd": 3.0, "max_days": 2500},
        })
        tables = writer.document()["tables"]
        precision, recall, base_rate, samples = tables["predictor"]["rows"][0]
        assert 0.0 <= precision <= 1.0 and 0.0 < recall <= 1.0
        assert 0.0 < base_rate < 1.0 and samples > 0
        headers = tables["policies"]["headers"]
        policies = {row[0].split()[0]: dict(zip(headers, row))
                    for row in tables["policies"]["rows"]}
        assert sorted(policies) == ["fixed-age", "predictive",
                                    "run-to-failure"]
        # Run-to-failure wastes nothing and is always surprised.
        run = policies["run-to-failure"]
        assert (run["unexpected_failure_rate"], run["wasted_life_fraction"],
                run["preemptive_retirements"]) == (1.0, 0.0, 0)
        assert (policies["predictive"]["unexpected_failure_rate"]
                < run["unexpected_failure_rate"])

    def test_traffic_tables_are_the_engine_document(self):
        # Every leaf of run_traffic's engine/v1 document but its schema
        # lands in the artifact: config and seed in meta, the rest as
        # tables (nested dicts flattened to <key>_<sub> columns).
        from repro.obs.slo import validate_slo_document
        from repro.workloads.engine import EngineConfig, run_traffic

        slo = json.loads((SCENARIOS / "traffic_slo.json").read_text())["slo"]
        document = run_scenario({
            "name": "t", "kind": "traffic", "seed": 5, "slo": slo,
            "params": {"tenants": 8, "duration_us": 2000, "shards": 2,
                       "mode": "regen"}}, jobs=2).document()
        expected = run_traffic(
            EngineConfig(tenants=8, duration_us=2000.0, shards=2,
                         mode="regen"), seed=5,
            objectives=validate_slo_document(slo))

        def rows(name):
            table = document["tables"][name]
            return [dict(zip(table["headers"], row))
                    for row in table["rows"]]

        def flat(record):
            return {f"{key}_{sub}" if sub else key: inner
                    for key, value in record.items()
                    for sub, inner in (value.items()
                                       if isinstance(value, dict)
                                       else [(None, value)])}

        assert document["meta"]["seed"] == expected["seed"] == 5
        assert document["meta"]["config"] == expected["config"]
        assert document["meta"]["slo"] == slo
        assert rows("tenants") == expected["tenants"]
        assert rows("cells") == [flat(cell) for cell in expected["cells"]]
        assert rows("totals") == [expected["totals"]]
        assert {row["class"]: row["median_p99_us"]
                for row in rows("by_class")} == \
            expected["median_p99_by_class_us"]
        assert rows("slo") == [
            {"cell": cell, **flat(row)}
            for cell, report in enumerate(expected["slo"]["cells"])
            for row in report["objectives"]]

    def test_probe_writes_its_records_beside_the_artifact(self, tmp_path):
        # The kind's slo table is evaluate_by_device's rows (filters
        # flattened), its segments table the cohort shares of the
        # records it writes to reqtrace.jsonl.
        from repro.obs.analyze import segment_breakdown
        from repro.obs.endurance import load_endurance
        from repro.obs.reqtrace import load_reqtrace
        from repro.obs.slo import evaluate_by_device, validate_slo_document

        slo = json.loads((SCENARIOS / "slo_default.json").read_text())["slo"]
        writer = run_scenario({
            "name": "p", "kind": "probe", "seed": 7, "slo": slo,
            "modes": ["shrink", "baseline"],
            "params": {"every": 4, "requests": 100}}, jobs=2)
        writer.write(tmp_path)
        header, records = load_reqtrace(tmp_path / "reqtrace.jsonl")
        assert header["meta"]["modes"] == ["shrink", "baseline"]
        assert header["meta"]["every"] == 4
        _, wear = load_endurance(tmp_path / "endurance.jsonl")
        assert [record["name"].split("/")[0] for record in wear] == \
            ["shrink", "baseline"]
        document = writer.document()
        assert document["meta"]["seed"] == 7

        def rows(name):
            table = document["tables"][name]
            return [dict(zip(table["headers"], row))
                    for row in table["rows"]]

        expected = evaluate_by_device(records, validate_slo_document(slo))
        assert rows("slo") == [
            {key: value for key, value in row.items() if key != "filters"}
            | {f"filters_{key}": value
               for key, value in row["filters"].items()}
            for row in expected]
        assert [row["device_kind"] for row in rows("slo")] == \
            ["baseline"] * 3 + ["shrink"] * 3
        cohorts = segment_breakdown(records)
        assert {row["cohort"]: row["requests"] for row in rows("segments")} \
            == {name: cohort["count"] for name, cohort in cohorts.items()}

    def test_health_rejects_unknown_params(self):
        with pytest.raises(ConfigError):
            validate_scenario({"name": "h", "kind": "health",
                               "params": {"sample_days": 7}})


class TestShippedScenarios:
    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")),
                             ids=lambda path: path.name)
    def test_every_file_loads_as_a_scenario_or_an_slo_config(self, path):
        # SLO objectives ship inside the scenario that evaluates them
        # (traffic_slo.json, slo_default.json): every file is a scenario.
        validate_scenario(load_scenario(path))

    def test_every_kind_ships_a_file(self):
        kinds = {load_scenario(path)["kind"]
                 for path in SCENARIOS.glob("*.json")}
        assert kinds == set(SCENARIO_KINDS)

    @pytest.mark.parametrize("name", ["fig2_ldpc.json"])
    def test_shipped_scenarios_validate(self, name):
        assert shipped(name)

    #: Each kind's shipped experiment, the one its bare defaults run.
    CANONICAL = {"tournament": "tournament.json", "carbon": "carbon.json",
                 "tco": "tco.json",
                 "replacement": "measured_upgrade_rates.json",
                 "fig2": "fig2.json", "health": "health.json",
                 "traffic": "traffic.json", "probe": "probe.json",
                 "agreement": "agreement.json"}

    def test_every_kind_but_fleet_has_a_canonical_file(self):
        assert set(self.CANONICAL) == set(SCENARIO_KINDS) - {"fleet"}

    @pytest.mark.parametrize("kind", sorted(CANONICAL))
    def test_bare_scenario_is_the_shipped_experiment(self, kind):
        # A bare {"kind": ...} runs the shipped file's experiment. Not
        # the fleet kind: the fleet_grid workload and the figure benches
        # build on FleetConfig's defaults, so they stay what they are
        # rather than become scenarios/fleet.json's Fig. 3 settings.
        bare = run_scenario({"name": "bare", "kind": kind})
        assert bare.document()["tables"] == shipped(self.CANONICAL[kind])



class TestOneProducerPerTable:
    """The claim benches read their tables from a shipped scenario run
    (``benchmarks/shipped.py``) instead of computing them again."""

    #: Shipped file -> table -> the columns its bench formats or asserts
    #: on (FIG2; FIG3A/3B and TAB-LIFE's fleet column; TAB-LIFE; FIG4;
    #: TAB-COST; EXT-RU; EXT-HEALTH).
    BENCH_READS = {
        "fig2.json": {"fig2": ["level", "capacity_fraction", "code_rate",
                               "max_rber", "pec_limit", "pec_gain",
                               "marginal_gain"]},
        "fleet.json": {"summary": ["mode", "mean_lifetime_days",
                                   "median_death_day",
                                   "initial_capacity_bytes"]},
        "tournament.json": {"lifetimes": ["device", "host_writes",
                                          "vs_baseline", "mean_pec"]},
        "carbon.json": {"fig4": ["configuration", "savings"],
                        "f_op": ["f_op", "shrinks", "regens"]},
        "tco.json": {"tco": ["mode", "savings", "cru"],
                     "f_opex": ["f_opex", "shrinks", "regens"]},
        "measured_upgrade_rates.json": {"upgrade_rates": [
            "mode", "purchases", "measured_ru", "mean_service_days",
            "preempted_fraction", "mean_capacity_fraction"]},
        "health.json": {
            "predictor": ["precision", "recall", "base_rate", "samples"],
            "policies": ["policy", "mean_service_days",
                         "unexpected_failure_rate", "wasted_life_fraction",
                         "preemptive_retirements"]},
    }

    #: The benches that read a shipped scenario, and the compute entry
    #: points of the kinds they read: importing one would compute a
    #: table a second time.
    CLAIM_BENCHES = ("test_fig2_tiredness.py", "test_fig3a_fleet_survival.py",
                     "test_fig3b_fleet_capacity.py",
                     "test_lifetime_extension.py", "test_fig4_carbon.py",
                     "test_tco.py", "test_measured_upgrade_rates.py",
                     "test_health_policies.py")
    ENTRY_POINTS = {"tiredness_tradeoff", "tournament_devices",
                    "run_write_lifetime", "simulate_fleet",
                    "fig4_configurations", "opex_sensitivity",
                    "cost_upgrade_rate", "measured_upgrade_rates",
                    "generate_trajectories"}

    @pytest.mark.parametrize("name", sorted(BENCH_READS))
    def test_shipped_file_writes_what_its_bench_reads(self, name):
        tables = shipped(name)
        for table, columns in self.BENCH_READS[name].items():
            missing = set(columns) - set(tables[table]["headers"])
            assert not missing, (name, table, missing)

    def test_fleet_writes_both_curves_of_every_mode(self):
        document = shipped_document("fleet.json")
        modes = [row[0] for row in document["tables"]["summary"]["rows"]]
        assert modes == load_scenario(SCENARIOS / "fleet.json")["modes"]
        assert set(document["series"]) == {
            f"{mode}/{curve}" for mode in modes
            for curve in ("functioning", "capacity")}

    def test_health_writes_four_policies(self):
        # Run to failure, retire at 0.6 and at 0.9 of the median life,
        # and retire on the predictor's alarm.
        policies = [row[0] for row in shipped("health.json")["policies"]
                    ["rows"]]
        assert [policy.split()[0] for policy in policies] == [
            "run-to-failure", "fixed-age", "fixed-age", "predictive"]
        early, late = (float(policy.split()[1].rstrip("d"))
                       for policy in policies[1:3])
        assert late / early == pytest.approx(0.9 / 0.6, abs=0.01)

    @staticmethod
    def names_used(source: str) -> set[str]:
        """Every name a module imports or reads as an attribute."""
        names = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rsplit(".", 1)[-1]
                             for alias in node.names)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
        return names

    @pytest.mark.parametrize("bench", CLAIM_BENCHES)
    def test_claim_bench_reads_its_scenario(self, bench):
        source = (ROOT / "benchmarks" / bench).read_text()
        assert "from benchmarks.shipped import" in source
        computed = self.names_used(source) & self.ENTRY_POINTS
        assert not computed, f"{bench} computes its table again: {computed}"

    def test_guard_flags_a_bench_that_computes(self):
        source = (ROOT / "benchmarks" / "test_fig2_tiredness.py").read_text()
        assert not self.names_used(source) & self.ENTRY_POINTS
        assert self.names_used(source + (
            "\nfrom repro.models.lifetime import tiredness_tradeoff\n")) \
            & self.ENTRY_POINTS == {"tiredness_tradeoff"}

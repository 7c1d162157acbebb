"""Tests for the declarative scenario runner."""

import json

import pytest

from repro.errors import ConfigError
from repro.scenarios import (
    SCENARIO_KINDS,
    load_scenario,
    run_scenario,
    validate_scenario,
)


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

    def test_carbon(self):
        writer = run_scenario({"name": "c", "kind": "carbon"})
        rows = dict(writer.document()["tables"]["fig4"]["rows"])
        assert rows["regens/renewable"] == pytest.approx(0.2)

    def test_tco(self):
        writer = run_scenario({"name": "t", "kind": "tco",
                               "params": {"f_opex": 0.14}})
        rows = dict(writer.document()["tables"]["tco"]["rows"])
        assert rows["regens"] == pytest.approx(0.258, abs=0.01)

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

    def test_fleet_rejects_unknown_params(self):
        with pytest.raises(ConfigError):
            run_scenario({"name": "bad", "kind": "fleet",
                          "params": {"warp_factor": 9}})

    def test_tournament_small(self):
        writer = run_scenario({
            "name": "tour", "kind": "tournament", "seed": 1,
            "params": {"blocks": 24, "pec_limit": 20},
        })
        rows = {row[0]: row[1]
                for row in writer.document()["tables"]["lifetimes"]["rows"]}
        assert rows["regens"] > rows["baseline"]

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


class TestShippedScenarios:
    @pytest.mark.parametrize("name", ["fig2_ldpc.json"])
    def test_shipped_scenarios_validate(self, name):
        from pathlib import Path
        path = Path(__file__).parent.parent / "scenarios" / name
        document = load_scenario(path)
        writer = run_scenario(document)
        assert writer.document()["tables"]

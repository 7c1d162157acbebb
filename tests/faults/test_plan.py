"""FaultPlan / FaultSpec: validation, serialisation, derivation."""

import json

import pytest

from repro.errors import ConfigError
from repro.faults import (
    CRASH_SITES,
    FAULTS_SCHEMA,
    SITES,
    FaultPlan,
    FaultSpec,
    validate_fault_document,
)


class TestFaultSpec:
    def test_minimal_spec_defaults(self):
        spec = FaultSpec(site="chip.program", fault="fail")
        assert spec.when == 1
        assert spec.count == 1
        assert spec.match == {}
        assert spec.args == {}

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError, match="unknown injection site"):
            FaultSpec(site="chip.nonsense", fault="fail")

    def test_unknown_fault_for_site_rejected(self):
        with pytest.raises(ConfigError, match="does not support"):
            FaultSpec(site="chip.program", fault="crash")

    @pytest.mark.parametrize("when", [0, -1, 1.5, "2"])
    def test_bad_when_rejected(self, when):
        with pytest.raises(ConfigError, match="when"):
            FaultSpec(site="chip.program", fault="fail", when=when)

    @pytest.mark.parametrize("count", [0, -3, "1"])
    def test_bad_count_rejected(self, count):
        with pytest.raises(ConfigError, match="count"):
            FaultSpec(site="chip.program", fault="fail", count=count)

    def test_match_values_must_be_scalars(self):
        with pytest.raises(ConfigError, match="JSON scalar"):
            FaultSpec(site="chip.read", fault="corrupt",
                      match={"fpage": [1, 2]})

    def test_matches_is_subset_semantics(self):
        spec = FaultSpec(site="chip.read", fault="uncorrectable",
                         match={"fpage": 3})
        assert spec.matches({"fpage": 3, "slot": 0})
        assert not spec.matches({"fpage": 4})
        assert not spec.matches({})

    def test_roundtrip_omits_defaults(self):
        spec = FaultSpec(site="gc.pre_erase", fault="crash", when=7)
        record = spec.to_dict()
        assert record == {"site": "gc.pre_erase", "fault": "crash",
                          "when": 7}
        assert FaultSpec.from_dict(record) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            FaultSpec.from_dict({"site": "chip.read",
                                 "fault": "corrupt", "extra": 1})

    def test_from_dict_requires_site_and_fault(self):
        with pytest.raises(ConfigError, match="missing"):
            FaultSpec.from_dict({"site": "chip.read"})


class TestSiteRegistry:
    def test_crash_sites_only_support_crash(self):
        for site in CRASH_SITES:
            assert SITES[site] == ("crash",)

    def test_every_site_names_at_least_one_fault(self):
        for site, kinds in SITES.items():
            assert kinds, f"site {site} has no fault kinds"

    def test_expected_layers_present(self):
        # One representative per layer; docs/FAULTS.md lists them all.
        for site in ("chip.read", "ftl.drain.post_program", "gc.pre_erase",
                     "salamander.decommission", "difs.recovery.read",
                     "fleet.step"):
            assert site in SITES


class TestFaultPlan:
    def test_events_must_be_specs(self):
        with pytest.raises(ConfigError, match="FaultSpec"):
            FaultPlan(events=({"site": "chip.read"},))

    def test_json_roundtrip_byte_stable(self):
        plan = FaultPlan(events=(
            FaultSpec(site="chip.read", fault="corrupt", when=5,
                      args={"byte": 3, "mask": 129}),
            FaultSpec(site="ftl.write", fault="crash", when=2, count=1),
        ), seed=99)
        text = plan.to_json()
        again = FaultPlan.from_json(text)
        assert again == plan
        assert again.to_json() == text
        assert text.endswith("\n")
        assert json.loads(text)["schema"] == FAULTS_SCHEMA

    def test_save_load(self, tmp_path):
        plan = FaultPlan.random(31, n_events=4)
        path = plan.save(tmp_path / "sub" / "plan.json")
        assert FaultPlan.load(path) == plan

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            FaultPlan.load(tmp_path / "nope.json")

    def test_bad_schema_rejected(self):
        with pytest.raises(ConfigError, match="schema"):
            FaultPlan.from_dict({"schema": "repro.faults/v0", "events": []})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_validate_fault_document(self):
        validate_fault_document(FaultPlan.random(1).to_dict())
        with pytest.raises(ConfigError):
            validate_fault_document({"schema": FAULTS_SCHEMA,
                                     "events": "zap"})

    def test_random_is_deterministic(self):
        a = FaultPlan.random(1234, n_events=6)
        b = FaultPlan.random(1234, n_events=6)
        assert a == b
        assert a.to_json() == b.to_json()
        assert a.seed == 1234
        assert FaultPlan.random(1235, n_events=6) != a

    def test_random_respects_site_pool(self):
        plan = FaultPlan.random(7, n_events=10, sites=CRASH_SITES)
        assert plan.sites() <= set(CRASH_SITES)
        for spec in plan:
            assert spec.fault == "crash"

    def test_random_unknown_site_rejected(self):
        with pytest.raises(ConfigError, match="unknown injection site"):
            FaultPlan.random(7, sites=("chip.warp",))

    def test_extended_and_for_site(self):
        base = FaultPlan(seed=5)
        plan = base.extended(FaultSpec(site="chip.erase", fault="fail"),
                             FaultSpec(site="chip.read", fault="corrupt"))
        assert len(plan) == 2
        assert plan.seed == 5
        assert [s.site for s in plan.for_site("chip.erase")] == ["chip.erase"]
        assert len(base) == 0  # immutable

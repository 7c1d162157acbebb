"""SMART catalog contract: names, version, and artifact round-trips.

The catalog (:mod:`repro.obs.smart`) is the vocabulary every telemetry
producer emits into timeseries buffers; these tests pin the version-2
wear-provenance fields, the only-grows compatibility rule (version-1
artifacts still load and validate), and loud rejection of unknown
names.
"""

import pytest

from repro.errors import ConfigError
from repro.obs.smart import (
    SMART_CATALOG_VERSION,
    SMART_FIELDS,
    is_smart_series,
    smart_field,
)
from repro.obs.timeseries import (
    TimeseriesSampler,
    load_timeseries,
    merge_documents,
    validate_timeseries_document,
)

#: Catalog-version-1 fields (the pre-wear-provenance vocabulary).
V1_FIELDS = (
    "repro_smart_age_days",
    "repro_smart_host_writes_bytes",
    "repro_smart_bad_blocks",
    "repro_smart_mean_pec",
    "repro_smart_wear_percentile",
)

#: Fields added by catalog version 2.
V2_FIELDS = (
    "repro_smart_waf",
    "repro_smart_wear_burn_rate",
    "repro_smart_lifetime_eta_days",
)


class TestCatalog:
    def test_version_bumped_for_wear_fields(self):
        assert SMART_CATALOG_VERSION == 2

    def test_wear_fields_present_with_units(self):
        assert smart_field("repro_smart_waf").unit == "ratio"
        assert smart_field("repro_smart_wear_burn_rate").unit == \
            "cycles_per_day"
        assert smart_field("repro_smart_lifetime_eta_days").unit == "days"
        for name in V2_FIELDS:
            assert smart_field(name).kind == "gauge"

    def test_v1_vocabulary_still_present(self):
        # The catalog only grows: every v1 name must keep resolving.
        for name in V1_FIELDS:
            assert smart_field(name).name == name
            assert is_smart_series(name)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown SMART field"):
            smart_field("repro_smart_flux_capacitance")
        assert not is_smart_series("repro_smart_flux_capacitance")

    def test_catalog_is_keyed_by_name(self):
        for name, field in SMART_FIELDS.items():
            assert field.name == name
            assert field.kind in ("gauge", "counter")


class TestArtifactRoundTrip:
    def _record(self, sampler, names, device):
        for t in (0.0, 10.0):
            for i, name in enumerate(names):
                meta = smart_field(name)
                sampler.record(name, t, float(i + t),
                               labels={"device": device},
                               unit=meta.unit, kind=meta.kind)

    def test_old_and_new_artifacts_load_and_validate(self, tmp_path):
        # A version-1-era artifact (no wear fields) and a version-2
        # artifact must both load and validate — and so must their
        # merge, the mixed-fleet case.
        old_sampler = TimeseriesSampler(cadence=0.0)
        self._record(old_sampler, V1_FIELDS, device="dev0")
        old_path = old_sampler.export_jsonl(tmp_path / "old.jsonl")

        new_sampler = TimeseriesSampler(cadence=0.0)
        self._record(new_sampler, V1_FIELDS + V2_FIELDS, device="dev1")
        new_path = new_sampler.export_jsonl(tmp_path / "new.jsonl")

        old_doc = validate_timeseries_document(load_timeseries(old_path))
        new_doc = validate_timeseries_document(load_timeseries(new_path))
        old_names = {s["name"] for s in old_doc["series"]}
        new_names = {s["name"] for s in new_doc["series"]}
        assert not old_names & set(V2_FIELDS)
        assert set(V2_FIELDS) <= new_names

        merged = validate_timeseries_document(
            merge_documents([old_doc, new_doc]))
        merged_names = {s["name"] for s in merged["series"]}
        assert set(V1_FIELDS) | set(V2_FIELDS) <= merged_names

    def test_wear_series_round_trip_values(self, tmp_path):
        sampler = TimeseriesSampler(cadence=0.0)
        sampler.record("repro_smart_waf", 1.0, 1.25,
                       labels={"device": "dev0"}, unit="ratio")
        sampler.record("repro_smart_lifetime_eta_days", 1.0, 420.0,
                       labels={"device": "dev0"}, unit="days")
        path = sampler.export_jsonl(tmp_path / "wear.jsonl")
        doc = validate_timeseries_document(load_timeseries(path))
        by_name = {s["name"]: s for s in doc["series"]}
        assert by_name["repro_smart_waf"]["v"] == [1.25]
        assert by_name["repro_smart_lifetime_eta_days"]["v"] == [420.0]


class TestProducers:
    def test_salamander_smart_sample_includes_waf(self, make_salamander):
        device = make_salamander()
        mdisk = device.active_minidisks()[0].mdisk_id
        for lba in range(16):
            device.write(mdisk, lba, bytes([lba]) * 8)
        device.flush()
        sample = device.smart_sample()
        for name in sample:
            assert is_smart_series(name), name
        # Buffered writes may still hold WAF below 1; it must be the
        # stats view either way.
        assert sample["repro_smart_waf"] == pytest.approx(
            device.stats.write_amplification)
        assert sample["repro_smart_waf"] > 0.0

    def test_fleet_emits_wear_forecast_series(self):
        from repro import context
        from repro.flash.geometry import FlashGeometry
        from repro.obs import MetricsRegistry
        from repro.sim.fleet import FleetConfig, simulate_fleet

        registry = MetricsRegistry()
        sampler = TimeseriesSampler(registry=registry, cadence=50.0)
        config = FleetConfig(
            devices=4, horizon_days=600, step_days=10,
            geometry=FlashGeometry(blocks=64, fpages_per_block=32))
        with context.scoped(metrics=registry, timeseries=sampler):
            simulate_fleet(config, "baseline", seed=5)
        names = sampler.series_names()
        for required in V2_FIELDS:
            assert required in names, required
        waf = sampler.get_series("repro_smart_waf", {"mode": "baseline"})
        assert waf.values[-1] == pytest.approx(
            config.write_amplification)
        eta = sampler.get_series("repro_smart_lifetime_eta_days",
                                 {"mode": "baseline"})
        assert eta.values[-1] >= 0.0

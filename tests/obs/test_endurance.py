"""Wear provenance acceptance: the ledger is *exact*, not approximate.

The contract under test (docs/OBSERVABILITY.md): with a ledger
scoped before device construction, the per-cause program/erase
counters sum to the chip's own counters on every device flavour —
including under injected program/erase faults — the per-block ledger
view equals ``pec_array()``, the measured WAF obeys
``1 + overhead/host`` against :mod:`repro.ssd.stats`, artifacts are
byte-identical for any ``--jobs`` fan-out, and forecast rows agree
with :func:`repro.models.lifetime.tiredness_tradeoff` limits exactly.
"""

from __future__ import annotations

import json

import pytest

from repro import context
from repro.errors import (
    ConfigError,
    DeviceBrickedError,
    DeviceReadOnlyError,
    MinidiskError,
    OutOfSpaceError,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.obs import endurance
from repro.obs.endurance import (
    CAUSES,
    ENDURANCE_SCHEMA,
    EnduranceLedger,
    fleet_survival,
    forecast_rows,
    load_endurance,
    validate_endurance_records,
    write_endurance,
)
from repro.ssd.ftl import FTLConfig, PageMappedFTL

FLAVOURS = ("ftl", "baseline", "cvss", "salamander", "regen")

#: Device-side failures the churn workload rides through, exactly like
#: the probe: a tired tiny device legitimately shrinks or fills up.
_CHURN_ERRORS = (DeviceBrickedError, DeviceReadOnlyError,
                 MinidiskError, OutOfSpaceError)


@pytest.fixture
def make_flavour(make_chip, ftl_config, make_baseline, make_cvss,
                 make_salamander):
    """One identically-configured device of any flavour."""

    def factory(flavour: str, seed: int = 7, **chip_kwargs):
        if flavour == "ftl":
            return PageMappedFTL.for_chip(
                make_chip(seed=seed, **chip_kwargs), ftl_config)
        if flavour == "baseline":
            return make_baseline(seed=seed, **chip_kwargs)
        if flavour == "cvss":
            return make_cvss(seed=seed, **chip_kwargs)
        if flavour == "salamander":
            return make_salamander(seed=seed, **chip_kwargs)
        if flavour == "regen":
            return make_salamander(mode="regen", seed=seed, **chip_kwargs)
        raise ValueError(flavour)

    return factory


def churn(device, passes: int = 6) -> None:
    """Overwrite the whole logical space repeatedly: forces GC/erases."""
    salamander = getattr(device, "device_kind", None) == "salamander"
    for p in range(passes):
        if salamander:
            targets = [(m.mdisk_id, m.size_lbas)
                       for m in device.active_minidisks()]
        else:
            targets = [(None, int(device.capacity_lbas))]
        for mdisk, span in targets:
            try:
                for lba in range(span):
                    if p and (lba + p) % 4 == 0:
                        continue  # leave cold data so GC must relocate
                    payload = bytes([(lba + p) & 0xFF]) * 8
                    if mdisk is None:
                        device.write(lba, payload)
                    else:
                        device.write(mdisk, lba, payload)
            except _CHURN_ERRORS:
                break
    try:
        device.flush()
    except _CHURN_ERRORS:
        pass


def assert_ledger_matches_chip(device) -> None:
    """The acceptance identity: ledger == chip counters, exactly."""
    chip = device.chip
    handle = chip._endurance
    assert handle is not None
    assert sum(handle.programs.values()) == handle.total_programs \
        == chip.stats.programs
    assert sum(handle.erases.values()) == handle.total_erases \
        == chip.stats.erases
    # pec_array() is per-fPage; every fPage of a block shares its PEC,
    # so striding by fpages_per_block yields the per-block view.
    per_block = chip.pec_array()[::chip.geometry.fpages_per_block]
    assert [int(c) for c in per_block] == handle.block_erases
    assert sum(handle.block_erases) == handle.total_erases
    validate_endurance_records([handle.document(12.0)])


class TestLedgerMatchesChip:
    @pytest.mark.parametrize("flavour", FLAVOURS)
    def test_cause_sums_equal_chip_counters(self, make_flavour, flavour):
        led = EnduranceLedger(pec_limit=12.0)
        with context.scoped(endurance=led):
            device = make_flavour(flavour)
            churn(device)
        handle = device.chip._endurance
        assert handle is led.devices["wear0"]
        assert handle.total_erases > 0, "churn produced no erases"
        assert_ledger_matches_chip(device)
        validate_endurance_records(led.device_records())

    @pytest.mark.parametrize("flavour", FLAVOURS)
    def test_exact_under_injected_program_and_erase_faults(
            self, make_flavour, flavour):
        # Injected failures raise before the chip mutates anything, so
        # neither PEC nor the ledger may advance for the failed op —
        # the equality has to survive the fault plan untouched.
        plan = FaultPlan(events=(
            FaultSpec(site="chip.program", fault="fail", when=40),
            FaultSpec(site="chip.program", fault="fail", when=90),
            FaultSpec(site="chip.erase", fault="fail", when=3),
        ))
        injector, led = FaultInjector(plan), EnduranceLedger()
        with context.scoped(faults=injector, endurance=led):
            device = make_flavour(flavour, inject_errors=False)
            churn(device)
            fired = injector.summary()["fired"]
        assert sum(fired.values()) >= 1, "no scheduled fault fired"
        assert_ledger_matches_chip(device)
        validate_endurance_records(led.device_records())

    @pytest.mark.parametrize("flavour", ("ftl", "baseline", "cvss"))
    def test_salamander_causes_zero_on_other_flavours(self, make_flavour,
                                                      flavour):
        with context.scoped(endurance=EnduranceLedger()):
            device = make_flavour(flavour)
            churn(device)
        handle = device.chip._endurance
        for cause in ("shrink", "regen", "meta", "remount"):
            assert handle.programs[cause] == 0
            assert handle.erases[cause] == 0


class TestWAFDecomposition:
    def test_identity_against_stats_counters(self, make_chip):
        # Scrub on, so host / gc / scrub all contribute: the ledger's
        # decomposition must tie out against the SSDStats counters.
        config = FTLConfig(overprovision=0.25, buffer_opages=8,
                           gc_reserve_blocks=2, scrub_interval_writes=40,
                           scrub_batch_fpages=16)
        with context.scoped(endurance=EnduranceLedger()):
            device = PageMappedFTL.for_chip(make_chip(seed=5), config)
            churn(device, passes=8)
        handle = device.chip._endurance
        stats = device.stats
        assert handle.total_program_opages == stats.flash_writes
        relocated = stats.gc_relocations + stats.wear_relocations
        overhead = sum(handle.program_opages[c] for c in CAUSES
                       if c != "host")
        assert overhead == relocated
        host = handle.program_opages["host"]
        assert host == stats.flash_writes - relocated
        assert host > 0 and relocated > 0
        assert handle.waf() == pytest.approx(
            1.0 + overhead / host, rel=1e-12)
        assert handle.waf_terms() == handle.program_opages

    def test_waf_none_until_host_opages(self):
        led = EnduranceLedger()
        dev = led.register_device(blocks=4, name="d")
        assert dev.waf() is None
        with led.cause("gc"):
            dev.record_program(4)
        assert dev.waf() is None  # overhead only, denominator still 0
        dev.record_program(4)
        assert dev.waf() == pytest.approx(2.0)


class TestCauseStack:
    def test_default_cause_is_host(self):
        led = EnduranceLedger()
        assert led.current_cause() == "host"

    def test_innermost_cause_wins(self):
        led = EnduranceLedger()
        dev = led.register_device(blocks=2, name="d")
        with led.cause("scrub"):
            dev.record_program(1)
            with led.cause("gc"):
                dev.record_program(1)
                dev.record_erase(0)
            dev.record_erase(1)
        assert dev.programs["scrub"] == dev.programs["gc"] == 1
        assert dev.erases["gc"] == dev.erases["scrub"] == 1
        assert led.current_cause() == "host"

    def test_unknown_cause_rejected(self):
        led = EnduranceLedger()
        with pytest.raises(ConfigError, match="unknown wear cause"):
            with led.cause("cosmic_rays"):
                pass
        assert led.current_cause() == "host"

    def test_duplicate_device_name_rejected(self):
        led = EnduranceLedger()
        led.register_device(blocks=2, name="d")
        with pytest.raises(ConfigError, match="already registered"):
            led.register_device(blocks=2, name="d")

    def test_auto_names_follow_registration_order(self):
        led = EnduranceLedger()
        assert led.register_device(blocks=2).name == "wear0"
        assert led.register_device(blocks=2).name == "wear1"
        led.clear()
        assert led.register_device(blocks=2).name == "wear0"

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ConfigError, match="snapshot_every"):
            EnduranceLedger(snapshot_every=0)
        led = EnduranceLedger()
        with pytest.raises(ConfigError, match="blocks"):
            led.register_device(blocks=0)


class TestSingleton:
    """The ledger's lifecycle: it lives in the run context's
    ``endurance`` field, and ``endurance.enabled()`` reads it."""

    def test_disabled_by_default(self, make_flavour):
        assert context.current().endurance is None
        assert not endurance.enabled()
        # Zero-cost contract: with nothing scoped, devices bind None
        # at construction and the hot path is one attribute test.
        device = make_flavour("ftl")
        assert device.chip._endurance is None
        assert device._endurance is None
        churn(device, passes=2)
        assert device.chip._endurance is None

    def test_installed_scope_restores_previous(self):
        outer = EnduranceLedger()
        with context.scoped(endurance=outer):
            assert context.current().endurance is outer
            with context.scoped(endurance=EnduranceLedger()) as ctx:
                inner = ctx.endurance
                assert context.current().endurance is inner
                assert inner is not outer
            assert context.current().endurance is outer
        assert context.current().endurance is None

    def test_install_uninstall(self):
        led = EnduranceLedger(pec_limit=9.0)
        with context.scoped(endurance=led):
            assert endurance.enabled()
            assert context.current().endurance is led
            assert led.pec_limit == 9.0
        assert not endurance.enabled()


class TestForecasting:
    def _burned_device(self):
        led = EnduranceLedger()
        dev = led.register_device(blocks=4, name="d", snapshot_every=1)
        # 8 host programs of 5 oPages, one erase each: snapshots run
        # (1, 5, 0.25) ... (8, 40, 2.0), a slope of 1.75/35 = 0.05
        # mean-PEC per host oPage.
        for i in range(8):
            dev.record_program(5)
            dev.record_erase(i % 4)
        return dev

    def test_burn_slope_is_first_to_last_snapshot(self):
        dev = self._burned_device()
        assert dev.snapshots[0] == (1, 5, 0.25)
        assert dev.snapshots[-1] == (8, 40, 2.0)
        assert dev.burn_slope() == pytest.approx(0.05)

    def test_forecast_eta_is_exact(self):
        dev = self._burned_device()
        forecast = dev.forecast(pec_limit=3.0)
        assert forecast["mean_pec"] == pytest.approx(2.0)
        assert forecast["eta_host_opages"] == pytest.approx(20.0)
        # Already past the limit: ETA clamps to zero, never negative.
        assert dev.forecast(pec_limit=1.0)["eta_host_opages"] == 0.0

    def test_no_slope_cases_yield_none(self):
        led = EnduranceLedger()
        fresh = led.register_device(blocks=2, name="fresh",
                                    snapshot_every=1)
        assert fresh.burn_slope() is None  # no snapshots at all
        fresh.record_erase(0)
        assert fresh.burn_slope() is None  # one snapshot: no baseline
        housekeeping = led.register_device(blocks=2, name="gc-only",
                                           snapshot_every=1)
        with led.cause("gc"):
            housekeeping.record_program(4)
            housekeeping.record_erase(0)
            housekeeping.record_erase(1)
        # Two snapshots but zero host progress: no host-work axis.
        assert housekeeping.burn_slope() is None
        assert housekeeping.forecast(pec_limit=5.0) is None
        assert housekeeping.document(5.0)["forecast"] is None

    def test_forecast_rows_match_tiredness_tradeoff(self):
        from repro.models.lifetime import tiredness_tradeoff

        doc = self._burned_device().document(pec_limit=3.0)
        rows = forecast_rows([doc])
        levels = tiredness_tradeoff(pec_limit_l0=3.0)
        assert [row["level"] for row in rows] == \
            [level.level for level in levels]
        assert [row["pec_limit"] for row in rows] == \
            [level.pec_limit for level in levels]
        for row in rows:
            assert row["eta_host_opages"] == max(
                0.0, (row["pec_limit"] - row["mean_pec"])
                / row["slope_pec_per_host_opage"])
        etas = [row["eta_host_opages"] for row in rows]
        assert etas == sorted(etas), \
            "higher tiredness levels must never shorten the ETA"

    def test_forecast_rows_l0_override(self):
        from repro.models.lifetime import tiredness_tradeoff

        doc = self._burned_device().document(pec_limit=3.0)
        rows = forecast_rows([doc], pec_limit_l0=6.0)
        assert [row["pec_limit"] for row in rows] == \
            [level.pec_limit for level in tiredness_tradeoff(
                pec_limit_l0=6.0)]

    def test_forecast_rows_skip_unforecastable_devices(self):
        led = EnduranceLedger()
        dev = led.register_device(blocks=2, name="fresh")
        assert forecast_rows([dev.document(5.0)]) == []
        assert forecast_rows([dev.document()]) == []

    def test_fleet_survival_counts_clearing_etas(self):
        docs = []
        for name, eta in (("a", 10.0), ("b", 100.0)):
            dev = self._burned_device()
            doc = dev.document(pec_limit=3.0)
            doc["name"] = name
            doc["forecast"]["eta_host_opages"] = eta
            docs.append(doc)
        docs.append({"name": "c", "forecast": None})
        survival = fleet_survival(docs, horizon_host_opages=50.0)
        assert survival["devices"] == 3
        assert survival["forecastable"] == 2
        assert survival["surviving"] == 1
        assert survival["survival_fraction"] == pytest.approx(0.5)
        empty = fleet_survival([], horizon_host_opages=50.0)
        assert empty["survival_fraction"] is None

    def test_churned_device_forecast_ties_to_lifetime_model(
            self, make_flavour):
        # End to end: a real churned device's artifact record yields
        # one forecast row per tiredness level, each recomputable from
        # the record's own slope and mean — the "stated tolerance" is
        # exact recomputation.
        from repro.models.lifetime import tiredness_tradeoff

        led = EnduranceLedger(pec_limit=12.0)
        with context.scoped(endurance=led):
            device = make_flavour("ftl")
            churn(device, passes=8)
        (record,) = led.device_records()
        assert record["forecast"] is not None, \
            "churn produced too few snapshots for a burn slope"
        rows = forecast_rows([record])
        assert len(rows) == len(tiredness_tradeoff(pec_limit_l0=12.0))
        slope = record["forecast"]["slope_pec_per_host_opage"]
        mean = record["forecast"]["mean_pec"]
        for row in rows:
            assert row["eta_host_opages"] == max(
                0.0, (row["pec_limit"] - mean) / slope)


class TestArtifacts:
    def _churned_ledger(self, make_flavour):
        led = EnduranceLedger(pec_limit=12.0)
        with context.scoped(endurance=led):
            device = make_flavour("ftl")
            churn(device, passes=4)
        return led

    def test_round_trip(self, make_flavour, tmp_path):
        led = self._churned_ledger(make_flavour)
        path = led.export_jsonl(tmp_path / "e.jsonl", meta={"seed": 7})
        header, records = load_endurance(path)
        assert header["schema"] == ENDURANCE_SCHEMA
        assert header["meta"]["seed"] == 7
        assert header["meta"]["devices"] == 1
        assert header["meta"]["causes"] == list(CAUSES)
        assert records == led.device_records()
        validate_endurance_records(records)

    def test_writes_are_deterministic_bytes(self, make_flavour, tmp_path):
        led = self._churned_ledger(make_flavour)
        a = led.export_jsonl(tmp_path / "a.jsonl")
        b = led.export_jsonl(tmp_path / "b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_endurance(tmp_path / "nope.jsonl")

    def test_corrupt_line(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"kind": "header"\n')
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_endurance(path)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("42\n")
        with pytest.raises(ConfigError, match="not a JSON object"):
            load_endurance(path)

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text(json.dumps(
            {"kind": "header", "schema": "repro.obs.bogus/v9"}) + "\n")
        with pytest.raises(ConfigError, match="unsupported endurance"):
            load_endurance(path)

    def test_headerless(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text(json.dumps({"kind": "device", "name": "d"}) + "\n")
        with pytest.raises(ConfigError, match="no .* header"):
            load_endurance(path)

    def test_write_endurance_standalone_header(self, tmp_path):
        led = EnduranceLedger()
        dev = led.register_device(blocks=2, name="d")
        dev.record_program(1)
        dev.record_erase(0)
        path = write_endurance(tmp_path / "w.jsonl", [dev.document()],
                               meta={"modes": ["baseline"]})
        header, records = load_endurance(path)
        assert header["meta"]["modes"] == ["baseline"]
        validate_endurance_records(records)


class TestValidation:
    @pytest.fixture
    def record(self):
        led = EnduranceLedger()
        dev = led.register_device(blocks=2, name="d")
        dev.record_program(3)
        with led.cause("gc"):
            dev.record_program(2)
            dev.record_erase(0)
        return dev.document()

    def test_valid_record_passes(self, record):
        validate_endurance_records([record])

    def test_missing_key(self, record):
        del record["waf"]
        with pytest.raises(ConfigError, match="missing 'waf'"):
            validate_endurance_records([record])

    def test_cause_set_mismatch(self, record):
        record["programs"].pop("meta")
        with pytest.raises(ConfigError, match="causes"):
            validate_endurance_records([record])

    def test_sum_total_mismatch(self, record):
        record["total_erases"] += 1
        with pytest.raises(ConfigError, match="sum"):
            validate_endurance_records([record])

    def test_histogram_must_cover_blocks(self, record):
        record["pec_histogram"] = {"0": 1}
        with pytest.raises(ConfigError, match="pec_histogram covers"):
            validate_endurance_records([record])

    def test_waf_identity_enforced(self, record):
        record["waf"] += 0.5
        with pytest.raises(ConfigError, match="breaks the identity"):
            validate_endurance_records([record])

    def test_waf_forbidden_without_host_opages(self):
        led = EnduranceLedger()
        dev = led.register_device(blocks=2, name="d")
        record = dev.document()
        record["waf"] = 1.0
        with pytest.raises(ConfigError, match="no host oPages"):
            validate_endurance_records([record])


class TestJobsInvariance:
    def test_merged_endurance_identical_across_jobs(self):
        from repro.io.probe import (
            ProbeConfig,
            merged_endurance,
            run_probes,
        )

        config = ProbeConfig(n_requests=120, every=4, age_passes=8)
        one = run_probes(("baseline", "shrink"), seed=11, config=config,
                         jobs=1)
        two = run_probes(("baseline", "shrink"), seed=11, config=config,
                         jobs=2)
        merged = merged_endurance(one)
        assert json.dumps(merged, sort_keys=True) == \
            json.dumps(merged_endurance(two), sort_keys=True)
        assert [record["name"] for record in merged] == \
            ["baseline/wear0", "shrink/wear0"]
        validate_endurance_records(merged)
        # The probes' scoped ledgers must not leak.
        assert not endurance.enabled()

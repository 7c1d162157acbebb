"""Tests for the bounded timeseries sampler and its artifact formats."""

import json
import math

import pytest

from repro import context, obs
from repro.errors import ConfigError
from repro.obs import MetricsRegistry
from repro.obs.noop import NULL_TIMESERIES
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA,
    SeriesBuffer,
    TimeseriesSampler,
    document_series_names,
    load_timeseries,
    merge_documents,
    series_from_document,
    validate_timeseries_document,
)


class TestSeriesBuffer:
    def test_appends_in_order(self):
        buf = SeriesBuffer(capacity=8)
        for t in range(5):
            buf.append(t, t * 10.0)
        assert buf.times == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert buf.values == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert buf.downsamples == 0

    def test_downsamples_2x_on_overflow(self):
        buf = SeriesBuffer(capacity=8)
        for t in range(8):
            buf.append(float(t), float(t))
        # Hitting capacity halves the buffer, keeping every other point
        # counting back from the newest.
        assert buf.downsamples == 1
        assert len(buf) == 4
        assert buf.times == [1.0, 3.0, 5.0, 7.0]

    def test_newest_point_survives_downsampling(self):
        buf = SeriesBuffer(capacity=16)
        for t in range(200):
            buf.append(float(t), float(t))
        assert buf.times[-1] == 199.0
        assert len(buf) < 16
        assert buf.downsamples >= 1

    def test_resolution_doubles_and_folds(self):
        buf = SeriesBuffer(capacity=8)
        for t in range(8):
            buf.append(float(t), float(t))
        assert buf.resolution == pytest.approx(2.0)
        # A sample inside the resolution window folds into the newest.
        buf.append(7.5, 99.0)
        assert buf.times[-1] == 7.5
        assert buf.values[-1] == 99.0
        assert buf.folded == 1
        assert len(buf) == 4

    def test_long_run_stays_bounded_and_spans_history(self):
        buf = SeriesBuffer(capacity=32)
        for t in range(100_000):
            buf.append(float(t), float(t))
        assert len(buf) < 32
        assert buf.times[0] < 20_000  # early history retained
        assert buf.times[-1] == 99_999.0
        assert buf.times == sorted(buf.times)

    def test_equal_time_folds_newest_wins(self):
        buf = SeriesBuffer(capacity=8)
        buf.append(1.0, 10.0)
        buf.append(1.0, 20.0)
        assert buf.values == [20.0]
        assert buf.folded == 1

    def test_backwards_time_is_skipped_not_fatal(self):
        buf = SeriesBuffer(capacity=8)
        buf.append(5.0, 1.0)
        buf.append(2.0, 2.0)  # a later run restarted its clock
        assert buf.times == [5.0]
        assert buf.skipped == 1

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ConfigError):
            SeriesBuffer(capacity=2)


class TestSampler:
    def test_cadence_gates_samples(self):
        sampler = TimeseriesSampler(cadence=10.0)
        state = {"v": 0.0}
        sampler.add_probe("x", lambda: state["v"])
        taken = sum(sampler.maybe_sample(float(t)) for t in range(25))
        assert taken == 3  # t=0, 10, 20
        assert len(sampler.get_series("x")) == 3

    def test_zero_cadence_samples_every_offer(self):
        sampler = TimeseriesSampler(cadence=0.0)
        sampler.add_probe("x", lambda: 1.0)
        for t in range(5):
            assert sampler.maybe_sample(float(t))
        assert sampler.samples_taken == 5

    def test_backwards_time_resets_gate(self):
        sampler = TimeseriesSampler(cadence=100.0)
        sampler.add_probe("x", lambda: 1.0, labels={"run": "a"})
        assert sampler.maybe_sample(500.0)
        # A fresh simulation restarts at a small time: sampled again.
        assert sampler.maybe_sample(5.0)

    def test_probe_remove_detaches_but_keeps_history(self):
        sampler = TimeseriesSampler()
        handle = sampler.add_probe("x", lambda: 1.0)
        sampler.sample(0.0)
        handle.remove()
        sampler.sample(1.0)
        assert len(sampler.get_series("x")) == 1

    def test_registry_snapshot_counters_gauges_histograms(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        counter = registry.counter("repro_test_ops", "ops")
        gauge = registry.gauge("repro_test_depth", "depth")
        histogram = registry.histogram("repro_test_lat", "lat")
        sampler = TimeseriesSampler(registry=registry)
        counter.inc(3)
        gauge.set(7)
        histogram.observe(0.5)
        sampler.sample(1.0)
        assert sampler.get_series("repro_test_ops").values == [3.0]
        assert sampler.get_series("repro_test_depth").values == [7.0]
        assert sampler.get_series("repro_test_lat_count").values == [1.0]
        assert sampler.get_series("repro_test_lat_sum").values == [0.5]

    def test_negative_cadence_rejected(self):
        with pytest.raises(ConfigError):
            TimeseriesSampler(cadence=-1.0)

    def test_schedule_matches_sequential_maybe_sample(self):
        # The pure fold the sharded fleet coordinator ships to workers
        # must predict maybe_sample() decision-for-decision — including
        # a backwards-time reset mid-sequence.
        times = [0.0, 4.0, 10.0, 11.0, 25.0, 3.0, 9.0, 13.0]
        oracle = TimeseriesSampler(cadence=10.0)
        schedule = TimeseriesSampler(cadence=10.0).schedule(times)
        assert schedule == [oracle.maybe_sample(t) for t in times]

    def test_schedule_is_pure(self):
        sampler = TimeseriesSampler(cadence=10.0)
        assert sampler.maybe_sample(0.0)
        first = sampler.schedule([5.0, 10.0, 30.0])
        # No side effects: same answer twice, and the gate state is
        # untouched (t=10 is still the next accepted offer).
        assert sampler.schedule([5.0, 10.0, 30.0]) == first == \
            [False, True, True]
        assert not sampler.maybe_sample(5.0)
        assert sampler.maybe_sample(10.0)


class TestRoundTrip:
    def _sampler(self):
        sampler = TimeseriesSampler(cadence=0.0, capacity=64)
        sampler.add_probe("repro_x", lambda: 1.5,
                          labels={"mode": "shrink"}, unit="bytes")
        sampler.add_probe("repro_y", lambda: -2.0)
        for t in range(10):
            sampler.maybe_sample(float(t))
        sampler.record("repro_weird", 3.0, math.nan)
        sampler.record("repro_weird", 4.0, math.inf)
        return sampler

    def test_jsonl_round_trip(self, tmp_path):
        sampler = self._sampler()
        path = sampler.export_jsonl(tmp_path / "ts.jsonl")
        document = load_timeseries(path)
        assert document["schema"] == TIMESERIES_SCHEMA
        assert document_series_names(document) == [
            "repro_weird", "repro_x", "repro_y"]
        t, v = series_from_document(document, "repro_x",
                                    {"mode": "shrink"})
        assert t == [float(i) for i in range(10)]
        assert v == [1.5] * 10
        _t, weird = series_from_document(document, "repro_weird")
        assert math.isnan(weird[0]) and math.isinf(weird[1])

    def test_csv_round_trip(self, tmp_path):
        sampler = self._sampler()
        path = sampler.export_csv(tmp_path / "ts.csv")
        document = load_timeseries(path)
        assert document["schema"] == TIMESERIES_SCHEMA
        t, v = series_from_document(document, "repro_x",
                                    {"mode": "shrink"})
        assert (t, v) == ([float(i) for i in range(10)], [1.5] * 10)

    def test_export_dispatches_on_suffix(self, tmp_path):
        sampler = self._sampler()
        csv_path = sampler.export(tmp_path / "a.csv")
        jsonl_path = sampler.export(tmp_path / "a.jsonl")
        assert csv_path.read_text().startswith("name,labels,")
        assert json.loads(jsonl_path.read_text().splitlines()[0])[
            "schema"] == TIMESERIES_SCHEMA

    def test_merge_documents(self, tmp_path):
        a = self._sampler().to_dict()
        b = TimeseriesSampler().to_dict()
        merged = merge_documents([a, b])
        validate_timeseries_document(merged)
        assert document_series_names(merged) == document_series_names(a)


class TestLoadingErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_timeseries(tmp_path / "nope.jsonl")

    def test_corrupt_jsonl(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ConfigError, match="bad.jsonl:1 is not valid JSON"):
            load_timeseries(path)

    def test_empty_jsonl(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_timeseries(path)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("who,what\n1,2\n")
        with pytest.raises(ConfigError, match="unexpected header"):
            load_timeseries(path)

    def test_validation_rejects_bad_documents(self):
        good = TimeseriesSampler().to_dict()
        validate_timeseries_document(good)
        for mutate in (
            lambda d: d.update(schema="nope"),
            lambda d: d.update(series="x"),
            lambda d: d["series"].append({"name": "", "labels": {},
                                          "t": [], "v": []}),
            lambda d: d["series"].append({"name": "a", "labels": {},
                                          "t": [1], "v": []}),
            lambda d: d["series"].append({"name": "a", "labels": {},
                                          "t": [2, 1], "v": [0, 0]}),
            lambda d: d["series"].append({"name": "a", "labels": {},
                                          "t": [1], "v": ["wat"]}),
        ):
            document = json.loads(json.dumps(
                TimeseriesSampler().to_dict()))
            mutate(document)
            with pytest.raises(ConfigError):
                validate_timeseries_document(document)

    def test_selector_requires_unique_match(self):
        sampler = TimeseriesSampler()
        sampler.record("x", 0.0, 1.0, labels={"mode": "a"})
        sampler.record("x", 0.0, 2.0, labels={"mode": "b"})
        document = sampler.to_dict()
        with pytest.raises(ConfigError, match="ambiguous"):
            series_from_document(document, "x")
        with pytest.raises(ConfigError, match="no series"):
            series_from_document(document, "y")
        _t, v = series_from_document(document, "x", {"mode": "a"})
        assert v == [1.0]


class TestSingletonWiring:
    """The sampler lives in the run context's ``timeseries`` field;
    ``obs.timeseries_enabled()`` reads it."""

    def test_disabled_by_default(self):
        assert not obs.timeseries_enabled()
        # The null sampler accepts the full API.
        null = context.current().timeseries
        null.record("x", 0.0, 1.0)
        assert not null.maybe_sample(1.0)
        assert len(null) == 0

    def test_enable_and_disable(self):
        sampler = TimeseriesSampler(cadence=5.0)
        with context.scoped(timeseries=sampler):
            assert obs.timeseries_enabled()
            assert context.current().timeseries is sampler
            assert sampler.cadence == 5.0
        assert not obs.timeseries_enabled()

    def test_scoped_enable_installs_sampler(self):
        registry = MetricsRegistry()
        sampler = TimeseriesSampler(registry=registry)
        with context.scoped(metrics=registry, timeseries=sampler) as ctx:
            assert context.current().timeseries is sampler
            # The sampler snapshots the scoped registry.
            assert sampler.registry is ctx.metrics
            ctx.metrics.counter("kept_total").inc()
            sampler.sample(0.0)
        assert sampler.series_names() == ["kept_total"]
        assert not obs.timeseries_enabled()


class TestNullSampler:
    def test_exports_empty_documents(self, tmp_path):
        path = NULL_TIMESERIES.export(tmp_path / "empty.jsonl")
        document = load_timeseries(path)
        assert document["series"] == []
        csv_path = NULL_TIMESERIES.export(tmp_path / "empty.csv")
        assert csv_path.read_text().startswith("name,labels,")


class TestFleetIntegration:
    def test_fleet_emits_smart_and_outcome_series(self):
        from repro.flash.geometry import FlashGeometry
        from repro.sim.fleet import FleetConfig, simulate_fleet

        registry = MetricsRegistry()
        sampler = TimeseriesSampler(registry=registry, cadence=50.0)
        config = FleetConfig(
            devices=6, horizon_days=900, step_days=10,
            geometry=FlashGeometry(blocks=64, fpages_per_block=32))
        with context.scoped(metrics=registry, timeseries=sampler):
            baseline = simulate_fleet(config, "baseline", seed=11)
            shrink = simulate_fleet(config, "shrink", seed=11)
        names = sampler.series_names()
        for required in ("repro_fleet_capacity_bytes",
                         "repro_fleet_devices_functioning",
                         "repro_fleet_mean_lifetime_days",
                         "repro_smart_wear_percentile",
                         "repro_smart_rber",
                         "repro_smart_level_fpages",
                         "repro_smart_retired_fpages"):
            assert required in names, required
        # Scalar outcomes match the returned results exactly.
        for mode, result in (("baseline", baseline), ("shrink", shrink)):
            buf = sampler.get_series("repro_fleet_mean_lifetime_days",
                                     {"mode": mode})
            assert buf.values[-1] == pytest.approx(
                result.mean_lifetime_days())
        # Wear percentiles are ordered: p95 >= p50 at the end.
        p50 = sampler.get_series("repro_smart_wear_percentile",
                                 {"mode": "shrink", "q": "50"})
        p95 = sampler.get_series("repro_smart_wear_percentile",
                                 {"mode": "shrink", "q": "95"})
        assert p95.values[-1] >= p50.values[-1]
        # Probes detached at run end: nothing appended afterwards.
        count = len(sampler.get_series("repro_smart_rber",
                                       {"mode": "shrink"}))
        sampler.sample(10_000.0)
        assert len(sampler.get_series("repro_smart_rber",
                                      {"mode": "shrink"})) == count

    def test_document_validates_after_sequential_runs(self):
        from repro.sim.fleet import FleetConfig, simulate_fleet

        registry = MetricsRegistry()
        sampler = TimeseriesSampler(registry=registry, cadence=25.0)
        config = FleetConfig(devices=4, horizon_days=400, step_days=10)
        with context.scoped(metrics=registry, timeseries=sampler):
            for mode in ("baseline", "shrink", "regen"):
                simulate_fleet(config, mode, seed=3)
        validate_timeseries_document(
            json.loads(json.dumps(sampler.to_dict())))

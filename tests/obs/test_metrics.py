"""Registry semantics: registration, labels, histograms, export."""

import json
import math

import pytest

from repro import context, obs
from repro.errors import ConfigError
from repro.obs import (
    MetricsRegistry,
    SimTimeTracer,
    render_prometheus,
    validate_metrics_document,
)


class TestRegistration:
    def test_idempotent_registration_returns_same_family(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", help="h", labelnames=("device",))
        b = registry.counter("x_total", help="other",
                             labelnames=("device",))
        assert a is b
        assert len(registry) == 1

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ConfigError):
            registry.gauge("x_total")

    def test_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labelnames=("device",))
        with pytest.raises(ConfigError):
            registry.counter("x_total", labelnames=("mode",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigError):
            registry.counter("2bad")
        with pytest.raises(ConfigError):
            registry.counter("ok_total", labelnames=("bad-label",))

    def test_get_and_families_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b_total")
        registry.gauge("a")
        assert [f.name for f in registry.families()] == ["a", "b_total"]
        assert registry.get("a").kind == "gauge"
        assert registry.get("missing") is None


class TestChildren:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total")
        family.inc()
        family.inc(2.5)
        assert family.value == 3.5
        with pytest.raises(ConfigError):
            family.inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4.0

    def test_labelled_children_are_distinct_and_cached(self):
        family = MetricsRegistry().counter("c_total",
                                           labelnames=("device",))
        family.labels(device="dev0").inc()
        family.labels(device="dev1").inc(2)
        assert family.labels(device="dev0").value == 1.0
        assert family.labels(device="dev1").value == 2.0
        assert family.labels(device="dev0") is family.labels(device="dev0")

    def test_wrong_labels_rejected(self):
        family = MetricsRegistry().counter("c_total",
                                           labelnames=("device",))
        with pytest.raises(ConfigError):
            family.labels(mode="x")
        with pytest.raises(ConfigError):
            family.inc()  # labelled family has no default child

    def test_label_cardinality_bounded(self):
        family = MetricsRegistry().counter("c_total", labelnames=("k",))
        family.max_label_sets = 8
        for i in range(8):
            family.labels(k=str(i)).inc()
        with pytest.raises(ConfigError):
            family.labels(k="overflow")


class TestHistogram:
    def test_buckets_cumulative_and_exported(self):
        registry = MetricsRegistry()
        family = registry.histogram("h", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.5, 1.7, 10.0):
            family.observe(value)
        child = family.labels()
        assert child.count == 4
        assert child.sum == pytest.approx(13.7)
        assert child.cumulative_buckets() == [
            (1.0, 1), (2.0, 3), (5.0, 3), (math.inf, 4)]

    def test_bad_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigError):
            registry.histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ConfigError):
            registry.histogram("h2", buckets=(1.0, 1.0))
        # An empty bucket tuple falls back to the defaults.
        from repro.obs.metrics import DEFAULT_BUCKETS
        assert registry.histogram("h3", buckets=()).buckets \
            == DEFAULT_BUCKETS


class TestExport:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("repro_x_total", help="a counter", unit="opages",
                         labelnames=("device",)).labels(device="dev0").inc(3)
        registry.gauge("repro_g", help="a gauge").set(1.5)
        histogram = registry.histogram("repro_h", help="a histogram",
                                       buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(5.0)
        return registry

    def test_document_validates(self):
        document = self._populated().to_dict()
        assert validate_metrics_document(document) is document

    def test_document_is_json_round_trippable(self, tmp_path):
        registry = self._populated()
        path = registry.write_json(tmp_path / "m.json")
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(registry.to_dict()))
        validate_metrics_document(loaded)

    def test_validation_rejects_corruption(self):
        document = self._populated().to_dict()
        document["metrics"][0]["type"] = "mystery"
        with pytest.raises(ConfigError):
            validate_metrics_document(document)
        with pytest.raises(ConfigError):
            validate_metrics_document({"schema": "nope", "metrics": []})

    def test_prometheus_rendering(self):
        registry = self._populated()
        text = registry.to_prometheus()
        assert text == render_prometheus(self._populated().to_dict())
        lines = text.splitlines()
        assert "# TYPE repro_x_total counter" in lines
        assert 'repro_x_total{device="dev0"} 3.0' in lines
        assert "repro_g 1.5" in lines
        assert 'repro_h_bucket{le="0.1"} 1' in lines
        assert 'repro_h_bucket{le="+Inf"} 2' in lines
        assert "repro_h_count 2" in lines

    def test_collect_hook_runs_at_export(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("lazy")
        state = {"n": 0}
        registry.add_collect_hook(lambda: gauge.set(state["n"]))
        state["n"] = 7
        document = registry.to_dict()
        (sample,) = [m for m in document["metrics"]
                     if m["name"] == "lazy"][0]["samples"]
        assert sample["value"] == 7.0


class TestGlobalSingletons:
    """The registry lives in the run context's ``metrics`` field;
    ``obs.metrics_enabled()`` reads it."""

    def test_noop_by_default(self):
        assert not obs.metrics_enabled()
        assert context.current().metrics is None

    def test_enable_disable_cycle(self):
        registry = MetricsRegistry()
        with context.scoped(metrics=registry):
            assert context.current().metrics is registry
            assert obs.metrics_enabled()
        assert not obs.metrics_enabled()

    def test_scoped_enable_restores_previous(self):
        assert not obs.metrics_enabled()
        registry, tracer = MetricsRegistry(), SimTimeTracer()
        with context.scoped(metrics=registry, tracer=tracer):
            assert context.current().metrics is registry
            assert context.current().tracer is tracer
        assert not obs.metrics_enabled()
        assert not obs.tracing_enabled()

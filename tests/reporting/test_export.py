"""Tests for JSON experiment artifacts."""

import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.reporting.export import ExperimentWriter
from repro.reporting.series import Series


class TestExperimentWriter:
    def test_roundtrip(self, tmp_path):
        writer = ExperimentWriter("fig-test", meta={"seed": 7})
        writer.add_table("gains", ["level", "gain"],
                         [["L1", 0.5], ["L2", np.float64(0.8)]])
        writer.add_series(Series("survivors", np.array([0.0, 1.0]),
                                 np.array([48, 40]), x_label="years"))
        path = writer.write(tmp_path)
        assert path.name == "fig-test.json"
        document = json.loads(path.read_text())
        assert document["meta"]["seed"] == 7
        assert document["tables"]["gains"]["rows"][1] == ["L2", 0.8]
        assert document["series"]["survivors"]["x"] == [0.0, 1.0]
        assert document["series"]["survivors"]["x_label"] == "years"

    def test_numpy_types_coerced_to_plain_json(self, tmp_path):
        writer = ExperimentWriter("types")
        writer.add_table("t", ["v"], [[np.int64(3)], [np.float32(1.5)]])
        path = writer.write(tmp_path)
        raw = json.loads(path.read_text())
        assert raw["tables"]["t"]["rows"] == [[3], [1.5]]

    def test_table_width_validated(self):
        writer = ExperimentWriter("x")
        with pytest.raises(ConfigError):
            writer.add_table("bad", ["a", "b"], [[1]])
        with pytest.raises(ConfigError):
            writer.add_table("bad", [], [])

    def test_experiment_name_validated(self):
        with pytest.raises(ConfigError):
            ExperimentWriter("")
        with pytest.raises(ConfigError):
            ExperimentWriter("a/b")

    def test_directory_created(self, tmp_path):
        writer = ExperimentWriter("nested")
        path = writer.write(tmp_path / "a" / "b")
        assert path.exists()


class TestSerialisationPolicy:
    def test_numpy_scalars_and_arrays_round_trip(self, tmp_path):
        writer = ExperimentWriter("np-types", meta={
            "i8": np.int8(-3), "u32": np.uint32(7),
            "f16": np.float16(0.5), "f64": np.float64(2.25),
            "flag": np.bool_(True),
            "vec": np.arange(3, dtype=np.int32),
            "grid": np.array([[1.0, 2.0], [3.0, 4.0]]),
        })
        document = json.loads(writer.write(tmp_path).read_text())
        meta = document["meta"]
        assert meta["i8"] == -3 and isinstance(meta["i8"], int)
        assert meta["u32"] == 7
        assert meta["f16"] == 0.5 and isinstance(meta["f16"], float)
        assert meta["f64"] == 2.25
        assert meta["flag"] is True
        assert meta["vec"] == [0, 1, 2]
        assert meta["grid"] == [[1.0, 2.0], [3.0, 4.0]]

    def test_non_finite_floats_become_strings(self, tmp_path):
        writer = ExperimentWriter("nonfinite", meta={
            "nan": float("nan"), "inf": float("inf"),
            "ninf": np.float64("-inf"),
            "mixed": np.array([1.0, np.nan, np.inf]),
        })
        path = writer.write(tmp_path)
        # The file must be strict JSON: no bare NaN/Infinity literals.
        raw = path.read_text()
        assert "NaN" not in raw.replace('"NaN"', "")
        meta = json.loads(raw)["meta"]
        assert meta["nan"] == "NaN"
        assert meta["inf"] == "Infinity"
        assert meta["ninf"] == "-Infinity"
        assert meta["mixed"] == [1.0, "NaN", "Infinity"]

    def test_non_serialisable_values_rejected(self):
        class Opaque:
            pass

        # Rows are serialised eagerly at add_table time ...
        writer = ExperimentWriter("bad")
        with pytest.raises(ConfigError):
            writer.add_table("t", ["v"], [[Opaque()]])
        # ... metadata lazily at document time.
        lazy = ExperimentWriter("bad2", meta={"handle": Opaque()})
        with pytest.raises(ConfigError):
            lazy.document()

    def test_path_and_enum_coerced_to_str(self, tmp_path):
        import enum
        from pathlib import Path

        class Mode(enum.Enum):
            REGEN = "regen"

        writer = ExperimentWriter("coerced", meta={
            "path": Path("/tmp/x"), "mode": Mode.REGEN})
        meta = json.loads(writer.write(tmp_path).read_text())["meta"]
        assert meta["path"] == "/tmp/x"
        assert "REGEN" in meta["mode"] or "regen" in meta["mode"]


class TestAttachMetrics:
    """An experiment artifact carries no metrics document: a scenario's
    metrics live only in its run directory's metrics.json."""

    def test_no_metrics_key_when_not_attached(self, tmp_path):
        writer = ExperimentWriter("plain")
        document = json.loads(writer.write(tmp_path).read_text())
        assert "metrics" not in document
        assert not hasattr(writer, "attach_metrics")

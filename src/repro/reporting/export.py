"""Machine-readable experiment artifacts.

Benches print human tables; downstream users (plotting scripts, regression
dashboards) want structure. :class:`ExperimentWriter` collects named tables
and series and writes one JSON document per experiment, with a stable
schema::

    {
      "experiment": "fig3a",
      "meta": {...},                      # free-form provenance
      "tables": {"name": {"headers": [...], "rows": [[...], ...]}},
      "series": {"name": {"x": [...], "y": [...],
                           "x_label": "...", "y_label": "..."}},
      "metrics": {...}                    # optional; attach_metrics()
    }

Non-finite policy: JSON has no NaN/Infinity, and ``json.dumps`` silently
emits the non-standard ``NaN`` literal unless told otherwise. Artifacts
must parse everywhere (jq, browsers, strict parsers), so non-finite floats
are encoded as the strings ``"NaN"``, ``"Infinity"`` and ``"-Infinity"``,
and the final dump runs with ``allow_nan=False`` to guarantee none leak
through raw. Values of unknown types are rejected with
:class:`~repro.errors.ConfigError` rather than silently stringified.
"""

from __future__ import annotations

import math
from enum import Enum
from pathlib import Path

import numpy as np

from repro import artifact
from repro.errors import ConfigError
from repro.obs.timeseries import validate_timeseries_document
from repro.reporting.series import Series


def _finite(value: float):
    """Encode non-finite floats as strings (see module docstring)."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return value


def _jsonable(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _finite(float(value))
    if isinstance(value, str):
        return value
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (Path, Enum)):
        return str(value.value) if isinstance(value, Enum) else str(value)
    raise ConfigError(
        f"cannot serialise {type(value).__name__!r} value {value!r} "
        f"into an experiment artifact")


class ExperimentWriter:
    """Collects one experiment's tables/series and writes them as JSON.

    Args:
        experiment: identifier (becomes the file stem).
        meta: free-form provenance (config values, seeds, versions).
    """

    def __init__(self, experiment: str, meta: dict | None = None) -> None:
        if not experiment or "/" in experiment:
            raise ConfigError(
                f"experiment must be a non-empty name without '/', "
                f"got {experiment!r}")
        self.experiment = experiment
        self.meta = dict(meta or {})
        self._tables: dict[str, dict] = {}
        self._series: dict[str, dict] = {}
        self._metrics = None
        self._timeseries = None

    def attach_metrics(self, registry) -> None:
        """Embed a metrics registry's document in the artifact.

        ``registry`` is anything with a ``to_dict()`` returning the
        ``repro.obs.metrics/v1`` document (collected lazily at
        :meth:`document` time, so late samples are included).
        """
        self._metrics = registry

    def attach_timeseries(self, sampler) -> None:
        """Embed a timeseries sampler's document in the artifact.

        ``sampler`` is anything with a ``to_dict()`` returning the
        ``repro.obs.timeseries/v1`` document (snapshotted lazily at
        :meth:`document` time). ``repro report`` reads the embedded
        document via ``--artifact`` exactly as it reads a standalone
        ``--timeseries`` file.
        """
        self._timeseries = sampler

    def add_table(self, name: str, headers: list[str],
                  rows: list[list]) -> None:
        if not headers:
            raise ConfigError("headers must be non-empty")
        for row in rows:
            if len(row) != len(headers):
                raise ConfigError(
                    f"table {name!r}: row width {len(row)} != "
                    f"{len(headers)} headers")
        self._tables[name] = {
            "headers": list(headers),
            "rows": [_jsonable(list(row)) for row in rows],
        }

    def add_series(self, series: Series) -> None:
        self._series[series.name] = {
            "x": _jsonable(series.x),
            "y": _jsonable(series.y),
            "x_label": series.x_label,
            "y_label": series.y_label,
        }

    def document(self) -> dict:
        document = {
            "experiment": self.experiment,
            "meta": _jsonable(self.meta),
            "tables": self._tables,
            "series": self._series,
        }
        if self._metrics is not None:
            document["metrics"] = _jsonable(self._metrics.to_dict())
        if self._timeseries is not None:
            document["timeseries"] = _jsonable(self._timeseries.to_dict())
        return document

    def write(self, directory: str | Path) -> Path:
        """Write ``<directory>/<experiment>.json``; returns the path."""
        return artifact.write_text(
            Path(directory) / f"{self.experiment}.json",
            artifact.dumps(self.document()))


_EXPERIMENT_FIELDS = {"experiment": str, "meta": dict, "tables": dict,
                      "series": dict}


def load_experiment(path: str | Path) -> dict:
    """Read back an artifact; validates the schema's top-level shape.

    Raises :class:`~repro.errors.ConfigError` on missing files and
    corrupt JSON so consumers (``repro report``) map the condition to
    exit code 2 rather than an unexpected-error traceback.
    """
    document = artifact.read_json(path, "artifact")
    what = f"artifact {path}"
    artifact.require(document, what, _EXPERIMENT_FIELDS,
                     optional={"metrics": dict, "timeseries": dict})
    for section in ("tables", "series"):    # name -> object, both
        artifact.require(document[section], f"{what} {section}",
                         dict.fromkeys(document[section], dict))
    if "timeseries" in document:    # `repro report` reads it as it stands
        validate_timeseries_document(document["timeseries"])
    return document

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
                           "x_label": "...", "y_label": "..."}}
    }

:func:`load_experiments` and :func:`table_rows` are the reading side:
``repro report`` finds a run directory's documents by their
``meta.kind`` and reads their tables by column name.

Non-finite policy: JSON has no NaN/Infinity, and ``json.dumps`` silently
emits the non-standard ``NaN`` literal unless told otherwise. Artifacts
must parse everywhere (jq, browsers, strict parsers), so non-finite floats
are encoded as the strings ``"NaN"``, ``"Infinity"`` and ``"-Infinity"``,
and the final dump runs with ``allow_nan=False`` to guarantee none leak
through raw. Values of unknown types are rejected with
:class:`~repro.errors.ConfigError` rather than silently stringified.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path
from typing import Callable

import numpy as np

from repro import artifact
from repro.errors import ConfigError
from repro.obs.timeseries import _finite
from repro.reporting.series import Series


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
        #: Files written beside the document: name -> ``write(path)``.
        self.files: dict[str, Callable[[Path], Path]] = {}

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

    def add_file(self, name: str, write: Callable[[Path], Path]) -> None:
        """Have :meth:`write` also call ``write(<directory>/<name>)``."""
        self.files[name] = write

    def add_series(self, series: Series) -> None:
        self._series[series.name] = {
            "x": _jsonable(series.x),
            "y": _jsonable(series.y),
            "x_label": series.x_label,
            "y_label": series.y_label,
        }

    def document(self) -> dict:
        return {
            "experiment": self.experiment,
            "meta": _jsonable(self.meta),
            "tables": self._tables,
            "series": self._series,
        }

    def write(self, directory: str | Path) -> Path:
        """Write ``<directory>/<experiment>.json`` and every added file
        beside it; returns the document's path."""
        for name, write in self.files.items():
            write(Path(directory) / name)
        return artifact.write_text(
            Path(directory) / f"{self.experiment}.json",
            artifact.dumps(self.document()))


#: The run directory's JSON files that are not experiment documents.
NOT_EXPERIMENTS = ("metrics.json", "report.json")


def load_experiments(run_dir: Path) -> dict[str, tuple[Path, dict]]:
    """``kind -> (path, document)`` for every ``<name>.json`` experiment
    document in ``run_dir`` (every ``*.json`` but
    :data:`NOT_EXPERIMENTS`). A document must be an object with a
    ``meta.kind`` string and a ``tables`` object; a kind may appear once."""
    found: dict[str, tuple[Path, dict]] = {}
    for path in sorted(run_dir.glob("*.json")):
        if path.name in NOT_EXPERIMENTS:
            continue
        what = f"experiment document {path}"
        document = artifact.read_json(path, "experiment document")
        artifact.require(document, what, {"meta": dict, "tables": dict})
        kind = artifact.require(document["meta"], f"{what} meta",
                                {"kind": str})["kind"]
        if kind in found:
            raise ConfigError(f"two {kind} experiment documents in one "
                              f"run directory: {found[kind][0]} and {path}")
        found[kind] = (path, document)
    return found


def table_rows(experiments: dict, kind: str, table: str,
               columns: dict) -> list[dict] | None:
    """The rows of the ``kind`` document's ``table`` as dicts, each
    holding ``columns`` (name -> type, as :func:`artifact.require` takes
    them); ``None`` when ``experiments`` holds no ``kind`` document."""
    if kind not in experiments:
        return None
    path, document = experiments[kind]
    what = f"experiment document {path} table {table!r}"
    found = artifact.require(artifact.require(
        document["tables"], f"experiment document {path} tables",
        {table: dict})[table], what, {"headers": list, "rows": list})
    headers = [str(header) for header in found["headers"]]
    rows = []
    for index, row in enumerate(found["rows"]):
        where = f"{what} row {index}"
        if not isinstance(row, list) or len(row) != len(headers):
            raise ConfigError(f"{where} does not match its headers")
        rows.append(artifact.require(dict(zip(headers, row)), where,
                                     columns))
    return rows

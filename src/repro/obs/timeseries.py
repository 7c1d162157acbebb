"""Periodic fleet telemetry: bounded time-series over simulated time.

PR 1's metrics registry answers "what are the counters *now*"; the
paper's headline claims are *trajectories* — capacity decay under
ShrinkS/RegenS (Fig. 3), lifetime extension up to 1.5x, throughput
falling as ``(P - L) / P`` while tiredness levels climb. This module
records those trajectories the way production SMART telemetry does:
a sampler snapshots registered counters/gauges (plus arbitrary probe
callables, e.g. per-device SMART health from
:mod:`repro.obs.smart`) at a configurable sim-time cadence into
bounded per-series ring buffers.

Memory is bounded by construction: each series holds at most
``capacity`` points. On overflow the buffer *downsamples 2x* — every
other retained point is dropped (newest kept) and the series'
acceptance resolution doubles, so a year-scale run degrades gracefully
from fine to coarse sampling instead of exhausting memory or
truncating history. A series that overflows ``k`` times spans the
whole run at ``2^k`` times the original spacing.

Export is columnar (one ``t``/``v`` array pair per series) as JSONL or
CSV under the ``repro.obs.timeseries/v1`` schema; both round-trip via
:func:`load_timeseries` and are validated by
:func:`validate_timeseries_document`. ``repro report`` consumes these
artifacts for its claim checks.

Like the registry and tracer, the sampler is a run-context field
(:mod:`repro.context`) that is a no-op until scoped; instrumented loops
bind it once (``None`` for the no-op) so the disabled path costs one
``is None`` test per step.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Callable, Iterable, Mapping

from repro import artifact
from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry

#: Version tag stamped into every exported timeseries document.
TIMESERIES_SCHEMA = "repro.obs.timeseries/v1"

#: Default per-series ring capacity (points kept before 2x downsampling).
DEFAULT_CAPACITY = 512

#: Default fleet sampling cadence in simulated days — a monthly SMART
#: pull, the granularity production telemetry studies (Meza et al.,
#: Maneas et al.) mine. The CLI's ``--timeseries-cadence`` defaults to
#: this; pass 0 to sample at every simulation step instead.
DEFAULT_CADENCE = 30.0

_EPS = 1e-12

_CSV_HEADER = ["name", "labels", "unit", "kind", "t", "value"]


class SeriesBuffer:
    """One series' bounded ``(t, v)`` buffer with 2x downsampling.

    Appends are O(1) amortised. When the buffer reaches ``capacity``
    it keeps every other point counting back from the newest (so the
    most recent sample always survives) and doubles ``resolution`` —
    the minimum time gap accepted between retained points. Samples
    arriving closer than the current resolution are folded into the
    newest point (its value is overwritten), which keeps gauges
    current without growing the buffer.
    """

    __slots__ = ("capacity", "times", "values", "resolution",
                 "downsamples", "folded", "skipped")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 4:
            raise ConfigError(
                f"series capacity must be >= 4, got {capacity!r}")
        self.capacity = capacity
        self.times: list[float] = []
        self.values: list[float] = []
        self.resolution = 0.0   # min accepted spacing (0 = keep all)
        self.downsamples = 0    # 2x halvings performed
        self.folded = 0         # samples folded into an existing point
        self.skipped = 0        # backwards-time samples dropped

    def __len__(self) -> int:
        return len(self.times)

    def append(self, t: float, value: float) -> None:
        t = float(t)
        value = float(value)
        if self.times:
            last = self.times[-1]
            if t < last - _EPS:
                # A later simulation reusing the sampler restarted its
                # clock; a series frozen from the earlier run must not
                # go backwards. Drop the point (series with run-unique
                # labels are unaffected — their buffers start empty).
                self.skipped += 1
                return
            if t - last < self.resolution - _EPS or abs(t - last) <= _EPS:
                # Within the current resolution: newest value wins.
                self.values[-1] = value
                self.times[-1] = t
                self.folded += 1
                return
        self.times.append(t)
        self.values.append(value)
        if len(self.times) >= self.capacity:
            self._downsample()

    def _downsample(self) -> None:
        """Drop every other point (newest kept); double the resolution."""
        # Keep indices n-1, n-3, ... so the latest sample survives.
        keep = list(range(len(self.times) - 1, -1, -2))[::-1]
        span = self.times[-1] - self.times[0]
        spacing = span / max(len(self.times) - 1, 1)
        self.times = [self.times[i] for i in keep]
        self.values = [self.values[i] for i in keep]
        self.resolution = max(self.resolution * 2.0, spacing * 2.0)
        self.downsamples += 1


class _Probe:
    """A registered probe callable; ``remove()`` detaches it."""

    __slots__ = ("name", "labels", "unit", "fn", "_sampler", "_series")

    def __init__(self, sampler: "TimeseriesSampler", name: str,
                 labels: Mapping[str, str], unit: str | None,
                 fn: Callable[[], float]) -> None:
        self._sampler = sampler
        self.name = name
        self.labels = dict(labels)
        self.unit = unit
        self.fn = fn
        self._series: "_Series | None" = None  # cache, set on first sample

    def remove(self) -> None:
        """Detach this probe (its recorded history stays)."""
        if self._sampler is not None:
            self._sampler._remove_probe(self)
            self._sampler = None


def _labels_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Series:
    __slots__ = ("name", "labels", "unit", "kind", "buffer")

    def __init__(self, name: str, labels: Mapping[str, str],
                 unit: str | None, kind: str, capacity: int) -> None:
        self.name = name
        self.labels = dict(labels)
        self.unit = unit
        self.kind = kind
        self.buffer = SeriesBuffer(capacity)


class TimeseriesSampler:
    """Snapshots metrics and probes into bounded per-series buffers.

    Args:
        registry: optional :class:`MetricsRegistry` whose counters and
            gauges are snapshotted at every sample (histograms
            contribute ``<name>_count`` and ``<name>_sum`` series).
            ``None`` samples probes and direct records only.
        cadence: minimum simulated time between samples accepted by
            :meth:`maybe_sample` (0 samples on every offer).
        capacity: per-series ring capacity before 2x downsampling.
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 cadence: float = 0.0,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if cadence < 0:
            raise ConfigError(
                f"cadence must be non-negative, got {cadence!r}")
        if capacity < 4:
            raise ConfigError(
                f"capacity must be >= 4, got {capacity!r}")
        self.registry = registry
        self.cadence = float(cadence)
        self.capacity = int(capacity)
        self._series: dict[tuple[str, tuple], _Series] = {}
        self._probes: list[_Probe] = []
        self._last_sample_t: float | None = None
        self.samples_taken = 0

    # -- producers ---------------------------------------------------------

    def add_probe(self, name: str, fn: Callable[[], float],
                  labels: Mapping[str, str] | None = None,
                  unit: str | None = None) -> _Probe:
        """Register a zero-arg callable evaluated at every sample.

        Returns a handle whose ``remove()`` detaches the probe (used by
        simulators whose state dies with the run). A probe raising an
        exception fails the sample loudly — silent gaps are worse.
        """
        probe = _Probe(self, name, labels or {}, unit, fn)
        self._probes.append(probe)
        return probe

    def _remove_probe(self, probe: _Probe) -> None:
        try:
            self._probes.remove(probe)
        except ValueError:
            pass

    def record(self, name: str, t: float, value: float,
               labels: Mapping[str, str] | None = None,
               unit: str | None = None, kind: str = "gauge") -> None:
        """Append one point directly (no cadence gating)."""
        self._get_series(name, labels or {}, unit, kind).buffer.append(
            t, value)

    def _get_series(self, name: str, labels: Mapping[str, str],
                    unit: str | None, kind: str) -> _Series:
        key = (name, _labels_key(labels))
        series = self._series.get(key)
        if series is None:
            series = _Series(name, labels, unit, kind, self.capacity)
            self._series[key] = series
        return series

    # -- sampling ----------------------------------------------------------

    def schedule(self, times: Iterable[float]) -> list[bool]:
        """Which of ``times`` would :meth:`maybe_sample` accept, in order?

        A pure fold of the cadence gate from the sampler's *current*
        state — no side effects, no samples taken. The sharded fleet
        runner (:mod:`repro.sim.shard`) computes this once in the
        coordinator and ships it to shard workers, so every worker
        produces census material for exactly the steps the serial loop
        would have sampled.
        """
        last = self._last_sample_t
        accepted: list[bool] = []
        for t in times:
            t = float(t)
            due = (last is None or t < last - _EPS
                   or t - last >= self.cadence - _EPS)
            accepted.append(due)
            if due:
                last = t
        return accepted

    def maybe_sample(self, t: float) -> bool:
        """Sample iff at least ``cadence`` has elapsed since the last.

        Time moving *backwards* (a new simulation reusing the sampler)
        resets the gate rather than raising, so sequential per-mode
        runs in one process each begin with a sample.
        """
        last = self._last_sample_t
        if last is not None and t < last - _EPS:
            self._last_sample_t = None          # new run: reset the gate
        elif last is not None and t - last < self.cadence - _EPS:
            return False
        self.sample(t)
        return True

    def sample(self, t: float) -> None:
        """Unconditionally snapshot probes and the registry at time ``t``."""
        t = float(t)
        for probe in list(self._probes):
            series = probe._series
            if series is None:
                series = self._get_series(probe.name, probe.labels,
                                          probe.unit, "probe")
                probe._series = series
            series.buffer.append(t, probe.fn())  # append() coerces
        if self.registry is not None:
            self._sample_registry(t)
        self._last_sample_t = t
        self.samples_taken += 1

    def _sample_registry(self, t: float) -> None:
        self.registry.collect()
        for family in self.registry.families():
            for key, child in sorted(family._children.items()):
                labels = dict(zip(family.labelnames, key))
                if family.kind == "histogram":
                    self._get_series(
                        f"{family.name}_count", labels, "observations",
                        "counter").buffer.append(t, child.count)
                    self._get_series(
                        f"{family.name}_sum", labels, family.unit,
                        "counter").buffer.append(t, child.sum)
                else:
                    self._get_series(
                        family.name, labels, family.unit,
                        family.kind).buffer.append(t, child.value)

    # -- introspection -----------------------------------------------------

    def series_names(self) -> list[str]:
        return sorted({s.name for s in self._series.values()})

    def get_series(self, name: str,
                   labels: Mapping[str, str] | None = None,
                   ) -> SeriesBuffer | None:
        """The buffer for one ``(name, labels)`` series, if recorded."""
        series = self._series.get((name, _labels_key(labels or {})))
        return series.buffer if series is not None else None

    def __len__(self) -> int:
        return len(self._series)

    def clear(self) -> None:
        self._series.clear()
        for probe in self._probes:
            probe._series = None  # cached buffers no longer live here
        self._last_sample_t = None
        self.samples_taken = 0

    # -- export ------------------------------------------------------------

    def to_dict(self) -> dict:
        """The ``repro.obs.timeseries/v1`` document."""
        series = []
        for key in sorted(self._series, key=lambda k: (k[0], k[1])):
            s = self._series[key]
            series.append({
                "name": s.name,
                "labels": dict(s.labels),
                "unit": s.unit,
                "kind": s.kind,
                "resolution": s.buffer.resolution,
                "downsamples": s.buffer.downsamples,
                "t": list(s.buffer.times),
                "v": [_finite(v) for v in s.buffer.values],
            })
        return {
            "schema": TIMESERIES_SCHEMA,
            "cadence": self.cadence,
            "capacity": self.capacity,
            "samples_taken": self.samples_taken,
            "series": series,
        }

    def export_jsonl(self, path: str | Path) -> Path:
        """Write the document as JSONL: header line, then one series/line."""
        document = self.to_dict()
        header = {k: v for k, v in document.items() if k != "series"}
        return artifact.write_jsonl(path, [header, *document["series"]])

    def export_csv(self, path: str | Path) -> Path:
        """Write long-format CSV: ``name,labels,unit,kind,t,value``."""
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(_CSV_HEADER)
        for series in self.to_dict()["series"]:
            labels = json.dumps(series["labels"], sort_keys=True)
            for t, v in zip(series["t"], series["v"]):
                writer.writerow([series["name"], labels,
                                 series["unit"] or "",
                                 series["kind"], t, v])
        return artifact.write_text(path, out.getvalue())

    def export(self, path: str | Path) -> Path:
        """Dispatch on suffix: ``.csv`` -> CSV, everything else JSONL."""
        if str(path).endswith(".csv"):
            return self.export_csv(path)
        return self.export_jsonl(path)


def _finite(value: float):
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return value


def _unfinite(value) -> float:
    if value == "NaN":
        return math.nan
    if value == "Infinity":
        return math.inf
    if value == "-Infinity":
        return -math.inf
    return float(value)


# -- loading / validation ---------------------------------------------------


def load_timeseries(path: str | Path) -> dict:
    """Read a timeseries artifact (JSONL or CSV) back into the document.

    Raises :class:`~repro.errors.ConfigError` on missing files or
    corrupt content — ``repro report`` maps that to exit code 2.
    """
    if Path(path).suffix == ".csv":
        document = _load_csv(path)
    else:
        document = _load_jsonl(path)
    return validate_timeseries_document(document)


def _load_jsonl(path: str | Path) -> dict:
    lines = [record for _, record in
             artifact.read_jsonl(path, "timeseries artifact")]
    if not lines:
        raise ConfigError(f"timeseries artifact {path} is empty")
    return {**lines[0], "series": lines[1:]}


def _load_csv(path: str | Path) -> dict:
    series: dict[tuple[str, str], dict] = {}
    text = artifact.read_text(path, "timeseries CSV")
    try:
        reader = csv.reader(text.splitlines())
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ConfigError(f"unexpected header {header!r}")
        for row in reader:
            if len(row) != 6:
                raise ConfigError(f"bad row {row!r}")
            name, labels_json, unit, kind, t, v = row
            entry = series.setdefault((name, labels_json), {
                "name": name,
                "labels": artifact.parse_json(labels_json, "labels"),
                "unit": unit or None, "kind": kind,
                "resolution": 0.0, "downsamples": 0,
                "t": [], "v": [],
            })
            entry["t"].append(float(t))
            entry["v"].append(_finite(_unfinite(v)))
    except (ValueError, csv.Error) as error:    # ConfigError is one
        raise ConfigError(
            f"timeseries CSV {path} is corrupt: {error}") from error
    return {
        "schema": TIMESERIES_SCHEMA,
        "cadence": 0.0,
        "capacity": DEFAULT_CAPACITY,
        "samples_taken": max((len(s["t"]) for s in series.values()),
                             default=0),
        "series": [series[key] for key in sorted(series)],
    }


_SERIES_FIELDS = {"name": str, "labels": dict, "t": list, "v": list}


def validate_timeseries_document(document: object) -> dict:
    """Validate the ``repro.obs.timeseries/v1`` shape; returns the doc."""
    def fail(message: str):
        raise ConfigError(f"invalid timeseries document: {message}")

    artifact.require(document, "timeseries document", {"series": list},
                     schema=TIMESERIES_SCHEMA)
    seen: set[tuple[str, tuple]] = set()
    for entry in document["series"]:
        artifact.require(entry, "timeseries series", _SERIES_FIELDS)
        name, labels = entry["name"], entry["labels"]
        if not name:
            fail("empty series name")
        artifact.require(labels, f"timeseries series {name!r} labels",
                         dict.fromkeys(labels, str))
        key = (name, _labels_key(labels))
        if key in seen:
            fail(f"duplicate series {name!r} {labels!r}")
        seen.add(key)
        times, values = entry["t"], entry["v"]
        if len(times) != len(values):
            fail(f"{name}: len(t)={len(times)} != len(v)={len(values)}")
        previous = -math.inf
        for t in times:
            if not isinstance(t, (int, float)) or isinstance(t, bool):
                fail(f"{name}: non-numeric time {t!r}")
            if t < previous - _EPS:
                fail(f"{name}: times must be non-decreasing")
            previous = t
        for v in values:
            if isinstance(v, str):
                if v not in ("NaN", "Infinity", "-Infinity"):
                    fail(f"{name}: bad encoded value {v!r}")
            elif not isinstance(v, (int, float)) or isinstance(v, bool):
                fail(f"{name}: non-numeric value {v!r}")
    return document  # type: ignore[return-value]


def series_from_document(document: dict, name: str,
                         labels: Mapping[str, str] | None = None,
                         ) -> tuple[list[float], list[float]]:
    """Extract one series' ``(t, v)`` arrays from a loaded document.

    ``labels`` constrains matching: a series matches when all given
    label pairs are present (a subset match, so callers need not know
    every label a producer attached). Exactly one series must match.
    """
    wanted = dict(labels or {})
    matches = [
        entry for entry in document.get("series", [])
        if entry.get("name") == name
        and all(entry.get("labels", {}).get(k) == v
                for k, v in wanted.items())
    ]
    if not matches:
        raise ConfigError(
            f"timeseries document has no series {name!r} "
            f"with labels {wanted!r}")
    if len(matches) > 1:
        raise ConfigError(
            f"timeseries selector {name!r} {wanted!r} is ambiguous: "
            f"{len(matches)} series match")
    entry = matches[0]
    return (list(map(float, entry["t"])),
            [_unfinite(v) for v in entry["v"]])


def document_series_names(document: dict) -> list[str]:
    """Sorted distinct series names in a loaded document."""
    return sorted({entry.get("name") for entry in
                   document.get("series", [])})


def merge_documents(documents: Iterable[dict]) -> dict:
    """Concatenate several documents' series into one (for reports)."""
    series: list[dict] = []
    cadence = 0.0
    capacity = DEFAULT_CAPACITY
    samples = 0
    for document in documents:
        series.extend(document.get("series", []))
        cadence = max(cadence, float(document.get("cadence", 0.0)))
        capacity = max(capacity, int(document.get("capacity", capacity)))
        samples += int(document.get("samples_taken", 0))
    return {"schema": TIMESERIES_SCHEMA, "cadence": cadence,
            "capacity": capacity, "samples_taken": samples,
            "series": series}

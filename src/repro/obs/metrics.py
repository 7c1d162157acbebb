"""Process-local metrics registry (counters, gauges, histograms).

The registry is the cross-layer measurement substrate described in
docs/OBSERVABILITY.md: every instrumented layer (FTL, GC, Salamander,
diFS, fleet/engine simulators) registers *metric families* here —
named, typed, unit-annotated collections of labelled time-series — and
exports them as a schema-stable JSON document
(:data:`METRICS_SCHEMA`) or Prometheus text exposition format.

Design notes:

* Registration is idempotent: calling :meth:`MetricsRegistry.counter`
  twice with the same name returns the same family (and raises
  :class:`~repro.errors.ConfigError` on a type/label mismatch), so
  independent subsystems can share families without coordination.
* Label cardinality is bounded per family
  (:attr:`MetricFamily.max_label_sets`, default 1024) — a misbehaving
  instrumentation site fails loudly instead of leaking memory.
* Histograms use fixed buckets chosen at registration; observations
  are O(log buckets) via :func:`bisect.bisect_left`. Percentiles are
  estimated from the cumulative bucket counts, which is exactly the
  fidelity a Prometheus-style scrape gives an operator.
* The simulators are single-threaded, so children are plain Python
  objects without locks; ``inc``/``set``/``observe`` are a few
  attribute operations each.

The module-level default registry lives in :mod:`repro.obs` and is a
no-op (:mod:`repro.obs.noop`) until explicitly enabled, so
instrumentation costs ~nothing when observability is off.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro import artifact
from repro.errors import ConfigError

#: Version tag stamped into every exported metrics document.
METRICS_SCHEMA = "repro.obs.metrics/v1"

#: Default histogram buckets — tuned for the simulators' dimensionless
#: ratios and second-scale durations alike (two decades around 1.0).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """A monotonically increasing value (one labelled child)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError(
                f"counters only go up; cannot inc by {amount!r}")
        self.value += amount


class Gauge:
    """A value that can go up and down (one labelled child)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram (one labelled child).

    ``bounds`` are the inclusive upper bounds of each bucket
    (Prometheus ``le`` semantics); an implicit ``+Inf`` bucket catches
    the overflow. Bucket counts are stored non-cumulatively and
    cumulated at export.
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``(inf, count)``."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out

    def quantile(self, q: float) -> float:
        """Linearly interpolated quantile estimate (``q`` in [0, 1]).

        PromQL ``histogram_quantile`` semantics: the q-th observation
        is located in its bucket by cumulative rank, then linearly
        interpolated between the bucket's bounds (lower bound 0 for
        the first bucket). Overflow observations clamp to the last
        finite bound. 0.0 when empty.
        """
        return quantile_from_cumulative(self.cumulative_buckets(), q)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


def quantile_from_cumulative(buckets: Sequence[tuple[float, int]],
                             q: float) -> float:
    """Interpolated quantile over cumulative ``(le, count)`` pairs.

    The shared estimator behind :meth:`Histogram.quantile`,
    :func:`quantile_from_sample` and the ``repro report``/benchmark
    digests — one implementation instead of ad-hoc recomputations.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigError(f"q must be in [0, 1], got {q!r}")
    if not buckets:
        raise ConfigError("need at least one bucket")
    total = buckets[-1][1]
    if total == 0:
        return 0.0
    rank = q * total
    lower_bound = 0.0
    lower_count = 0
    for le, cumulative in buckets:
        if cumulative >= rank:
            if math.isinf(le):
                # Overflow bucket: clamp to the last finite bound.
                return lower_bound
            in_bucket = cumulative - lower_count
            if in_bucket <= 0:
                return le
            fraction = (rank - lower_count) / in_bucket
            return lower_bound + fraction * (le - lower_bound)
        lower_bound = le if not math.isinf(le) else lower_bound
        lower_count = cumulative
    return lower_bound


def quantile_from_sample(sample: Mapping, q: float) -> float:
    """Interpolated quantile from one exported histogram sample dict.

    ``sample`` is an entry of a ``repro.obs.metrics/v1`` histogram's
    ``samples`` list (cumulative ``buckets`` with ``"+Inf"`` encoded
    as a string).
    """
    buckets = sample.get("buckets")
    if not isinstance(buckets, list) or not buckets:
        raise ConfigError("sample has no 'buckets' list")
    pairs = [
        (math.inf if bucket.get("le") == "+Inf" else float(bucket["le"]),
         int(bucket["count"]))
        for bucket in buckets
    ]
    return quantile_from_cumulative(pairs, q)


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """A named metric with a fixed label schema and typed children.

    Families are created through the registry
    (:meth:`MetricsRegistry.counter` and friends), never directly.
    When ``labelnames`` is empty the family itself proxies the single
    default child, so ``family.inc()`` / ``family.set()`` /
    ``family.observe()`` work without a ``labels()`` call.
    """

    def __init__(self, kind: str, name: str, help: str = "",
                 unit: str | None = None,
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] | None = None,
                 max_label_sets: int = 1024) -> None:
        if kind not in _CHILD_TYPES:
            raise ConfigError(f"unknown metric kind {kind!r}")
        if not _METRIC_NAME_RE.match(name):
            raise ConfigError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label):
                raise ConfigError(f"invalid label name {label!r}")
        if len(set(labelnames)) != len(labelnames):
            raise ConfigError(f"duplicate label names in {labelnames!r}")
        if buckets is not None:
            if kind != "histogram":
                raise ConfigError("buckets are only valid for histograms")
            bounds = [float(b) for b in buckets]
            if not bounds or sorted(bounds) != bounds \
                    or len(set(bounds)) != len(bounds):
                raise ConfigError(
                    f"buckets must be non-empty and strictly increasing, "
                    f"got {buckets!r}")
        self.kind = kind
        self.name = name
        self.help = help
        self.unit = unit
        self.labelnames = tuple(labelnames)
        self.buckets = (tuple(float(b) for b in buckets)
                        if buckets is not None else
                        (DEFAULT_BUCKETS if kind == "histogram" else None))
        self.max_label_sets = max_label_sets
        self._children: dict[tuple[str, ...], object] = {}

    # -- children ---------------------------------------------------------

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self.buckets)
        return _CHILD_TYPES[self.kind]()

    def labels(self, **labels: str):
        """The child for one label set (created on first use)."""
        if set(labels) != set(self.labelnames):
            raise ConfigError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        key = tuple(str(labels[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            if len(self._children) >= self.max_label_sets:
                raise ConfigError(
                    f"metric {self.name!r} exceeded its label-set budget "
                    f"of {self.max_label_sets}; check for unbounded label "
                    f"values")
            child = self._make_child()
            self._children[key] = child
        return child

    def _default_child(self):
        if self.labelnames:
            raise ConfigError(
                f"metric {self.name!r} is labelled {self.labelnames}; "
                f"call .labels(...) first")
        return self.labels()

    # Unlabelled convenience proxies.
    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def quantile(self, q: float) -> float:
        return self._default_child().quantile(q)

    @property
    def value(self) -> float:
        return self._default_child().value

    # -- export -----------------------------------------------------------

    def samples(self) -> list[dict]:
        """Schema-stable sample dicts (sorted by label values)."""
        out = []
        for key in sorted(self._children):
            child = self._children[key]
            labels = dict(zip(self.labelnames, key))
            if self.kind == "histogram":
                out.append({
                    "labels": labels,
                    "count": child.count,
                    "sum": child.sum,
                    "buckets": [
                        {"le": "+Inf" if math.isinf(le) else le, "count": n}
                        for le, n in child.cumulative_buckets()],
                })
            else:
                out.append({"labels": labels, "value": child.value})
        return out


class MetricsRegistry:
    """Holds every metric family and exports them.

    Collect hooks (:meth:`add_collect_hook`) let stateful subsystems
    refresh gauges lazily at export time instead of on every mutation
    — e.g. the diFS cluster publishes live-volume counts only when a
    snapshot is actually taken.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._collect_hooks: list[Callable[[], None]] = []

    # -- registration ------------------------------------------------------

    def _register(self, kind: str, name: str, help: str,
                  unit: str | None, labelnames: Sequence[str],
                  buckets: Sequence[float] | None = None) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ConfigError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, cannot re-register as {kind}")
            if existing.labelnames != tuple(labelnames):
                raise ConfigError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.labelnames}, got {tuple(labelnames)}")
            return existing
        family = MetricFamily(kind, name, help=help, unit=unit,
                              labelnames=labelnames, buckets=buckets)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", unit: str | None = None,
                labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._register("counter", name, help, unit, labelnames)

    def gauge(self, name: str, help: str = "", unit: str | None = None,
              labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._register("gauge", name, help, unit, labelnames)

    def histogram(self, name: str, help: str = "", unit: str | None = None,
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] | None = None) -> MetricFamily:
        return self._register("histogram", name, help, unit, labelnames,
                              buckets=buckets or DEFAULT_BUCKETS)

    def add_collect_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` before every export (refresh lazy gauges)."""
        self._collect_hooks.append(hook)

    # -- introspection -----------------------------------------------------

    def families(self) -> list[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> MetricFamily | None:
        return self._families.get(name)

    def __len__(self) -> int:
        return len(self._families)

    # -- export ------------------------------------------------------------

    def collect(self) -> None:
        for hook in self._collect_hooks:
            hook()

    def to_dict(self) -> dict:
        """The schema-stable metrics document (see docs/OBSERVABILITY.md)."""
        self.collect()
        return {
            "schema": METRICS_SCHEMA,
            "metrics": [
                {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "unit": family.unit,
                    "labelnames": list(family.labelnames),
                    "samples": family.samples(),
                }
                for family in self.families()
            ],
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        from repro.obs.promtext import render_prometheus

        return render_prometheus(self.to_dict())

    def write_json(self, path: str | Path) -> Path:
        """Write the metrics document as JSON; returns the path."""
        return artifact.write_text(path, artifact.dumps(self.to_dict()))


_FAMILY_FIELDS = {"name": str, "type": str, "help": str,
                  "labelnames": list, "samples": list}
_VALUE_FIELDS = {"labels": dict, "value": float}
_HISTOGRAM_FIELDS = {"labels": dict, "count": int, "sum": float,
                     "buckets": list}


def validate_metrics_document(document: object) -> dict:
    """Validate the shape of an exported metrics document.

    This is the documented ``repro.obs.metrics/v1`` contract the CI
    smoke run and the bench snapshots assert against. Raises
    :class:`~repro.errors.ConfigError` on the first violation; returns
    the document for chaining.
    """
    def fail(message: str):
        raise ConfigError(f"invalid metrics document: {message}")

    artifact.require(document, "metrics document", {"metrics": list},
                     schema=METRICS_SCHEMA)
    seen: set[str] = set()
    for entry in document["metrics"]:
        artifact.require(entry, "metric entry", _FAMILY_FIELDS,
                         optional={"unit": (str, type(None))})
        name, kind = entry["name"], entry["type"]
        if not _METRIC_NAME_RE.match(name):
            fail(f"bad metric name {name!r}")
        if name in seen:
            fail(f"duplicate metric {name!r}")
        seen.add(name)
        if kind not in _CHILD_TYPES:
            fail(f"{name}: bad type {kind!r}")
        labelnames = entry["labelnames"]
        if not all(isinstance(label, str) and _LABEL_NAME_RE.match(label)
                   for label in labelnames):
            fail(f"{name}: bad labelnames {labelnames!r}")
        for sample in entry["samples"]:
            _validate_sample(name, kind, labelnames, sample, fail)
    return document  # type: ignore[return-value]


def _validate_sample(name: str, kind: str, labelnames: list,
                     sample: object, fail: Callable[[str], None]) -> None:
    artifact.require(sample, f"metric {name} sample",
                     _HISTOGRAM_FIELDS if kind == "histogram"
                     else _VALUE_FIELDS)
    labels = sample["labels"]
    if set(labels) != set(labelnames):
        fail(f"{name}: sample labels {labels!r} do not match "
             f"labelnames {labelnames!r}")
    if kind == "histogram":
        buckets = sample["buckets"]
        if not buckets:
            fail(f"{name}: histogram samples need a 'buckets' list")
        previous = -math.inf
        running = -1
        for bucket in buckets:
            if not isinstance(bucket, dict):
                fail(f"{name}: buckets must be objects")
            le = bucket.get("le")
            le_value = math.inf if le == "+Inf" else le
            if not isinstance(le_value, (int, float)) or le_value <= previous:
                fail(f"{name}: bucket bounds must be increasing, "
                     f"got {le!r}")
            count = bucket.get("count")
            if not isinstance(count, int) or count < max(running, 0):
                fail(f"{name}: bucket counts must be cumulative")
            previous, running = le_value, count
        if buckets[-1].get("le") != "+Inf" \
                or buckets[-1].get("count") != sample["count"]:
            fail(f"{name}: last bucket must be '+Inf' with the total count")

"""No-op observability objects: the disabled-by-default fast path.

Every instrumentation site in the codebase holds references obtained
from the run context (:mod:`repro.context`) at construction. When
observability is disabled (the default), its metrics, tracer and
timeseries fields are the singletons below, whose methods are empty —
one attribute lookup and one no-op call per instrumentation point, which
the overhead benchmark (``benchmarks/test_obs_overhead.py``) verifies is
within noise of an uninstrumented run. Hot loops that want literally
zero per-iteration cost additionally bind ``None`` when a field is its
null object.

The null objects mirror the real APIs exactly (including
``labels(...)`` chaining and span context managers) so instrumented
code never branches on whether observability is on.
"""

from __future__ import annotations

from repro import artifact
from repro.obs.metrics import METRICS_SCHEMA


class NullChild:
    """Accepts counter/gauge/histogram mutations and does nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    @property
    def value(self) -> float:
        return 0.0


class NullFamily(NullChild):
    """A metric family whose children are all the null child."""

    __slots__ = ()

    def labels(self, **labels):
        return NULL_CHILD

    def samples(self) -> list:
        return []


class NullMetricsRegistry:
    """Registry stand-in: registration returns null families."""

    __slots__ = ()

    def counter(self, name, help="", unit=None, labelnames=()):
        return NULL_FAMILY

    def gauge(self, name, help="", unit=None, labelnames=()):
        return NULL_FAMILY

    def histogram(self, name, help="", unit=None, labelnames=(),
                  buckets=None):
        return NULL_FAMILY

    def add_collect_hook(self, hook) -> None:
        pass

    def collect(self) -> None:
        pass

    def families(self) -> list:
        return []

    def get(self, name):
        return None

    def __len__(self) -> int:
        return 0

    def to_dict(self) -> dict:
        return {"schema": METRICS_SCHEMA, "metrics": []}

    def to_prometheus(self) -> str:
        return ""

    def write_json(self, path):
        return artifact.write_text(path, artifact.dumps(self.to_dict()))


class NullSpan:
    """Reusable no-op span context manager."""

    __slots__ = ()

    def set(self, **attrs) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class NullTracer:
    """Tracer stand-in: spans and events vanish."""

    __slots__ = ()
    capacity = 0
    dropped = 0

    def set_clock(self, clock) -> None:
        pass

    def now(self) -> float:
        return 0.0

    def span(self, name: str, **attrs) -> NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    @property
    def active_depth(self) -> int:
        return 0

    def records(self) -> list:
        return []

    def export_jsonl(self, path):
        return artifact.write_jsonl(path, [])

    def clear(self) -> None:
        pass


class NullProbeHandle:
    """Handle returned by the null sampler's ``add_probe``."""

    __slots__ = ()

    def remove(self) -> None:
        pass


class NullTimeseriesSampler:
    """Timeseries stand-in: samples and records vanish."""

    __slots__ = ()
    cadence = 0.0
    capacity = 0
    samples_taken = 0
    registry = None

    def add_probe(self, name, fn, labels=None, unit=None):
        return NULL_PROBE

    def record(self, name, t, value, labels=None, unit=None,
               kind="gauge") -> None:
        pass

    def maybe_sample(self, t: float) -> bool:
        return False

    def sample(self, t: float) -> None:
        pass

    def series_names(self) -> list:
        return []

    def get_series(self, name, labels=None):
        return None

    def __len__(self) -> int:
        return 0

    def clear(self) -> None:
        pass

    def to_dict(self) -> dict:
        from repro.obs.timeseries import TIMESERIES_SCHEMA

        return {"schema": TIMESERIES_SCHEMA, "cadence": 0.0,
                "capacity": 0, "samples_taken": 0, "series": []}

    def export_jsonl(self, path):
        return artifact.write_jsonl(path, [self.to_dict()])

    def export_csv(self, path):
        return artifact.write_text(path, "name,labels,unit,kind,t,value\n")

    def export(self, path):
        if str(path).endswith(".csv"):
            return self.export_csv(path)
        return self.export_jsonl(path)


NULL_CHILD = NullChild()
NULL_FAMILY = NullFamily()
NULL_METRICS = NullMetricsRegistry()
NULL_SPAN = NullSpan()
NULL_TRACER = NullTracer()
NULL_PROBE = NullProbeHandle()
NULL_TIMESERIES = NullTimeseriesSampler()

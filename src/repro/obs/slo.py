"""Declarative latency SLOs over the measured IO pipeline.

PR 5 made per-request latency a measured quantity; this module turns
it into something *enforceable*: a scenario's ``"slo"`` object declares
objectives ("p99 read ≤ 900 µs over a 50 ms window", "stream 2 misses
fewer than 1% of its deadlines") and an :class:`SLOEngine` tracks
compliance over sim-time windows as completions stream in — the
substrate that multi-tenant enforcement and repair throttling need.

Two objective kinds:

* ``latency`` — an interpolated percentile of completion latency over
  a sliding sim-time window must stay at or below ``threshold_us``. A
  completion above the threshold burns error budget (default budget =
  the percentile's complement, e.g. 1% for a p99 objective).
* ``deadline_miss_rate`` — the fraction of completions whose
  ``deadline_us`` passed before they finished (the queue's
  ``deadline_misses`` accounting, including the min-of-deadlines
  coalescing rule) must stay at or below ``max_ratio``.

Objectives filter on ``op`` / ``stream`` / ``device_kind`` tags, so
"reads on the salamander device for tenant 0" is one line of config.
Windows reuse the bounded-ring discipline of
:class:`repro.obs.timeseries.TimeseriesSampler`: a deque of
``(end_us, latency_us, bad)`` samples evicted by sim-time age and
capped in size, so memory stays bounded no matter how long a run is.

An engine is built per evaluation: a traffic scenario's ``slo`` replays
each cell's completions through a fresh one, and a probe scenario's
replays its reqtrace records, one device kind at a time
(:func:`evaluate_by_device` over :func:`evaluate_records`). When the
run context holds a metrics registry at construction the engine also
publishes ``repro_slo_*`` counters/gauges, refreshed through a collect
hook.

See docs/OBSERVABILITY.md for the config schema
(``repro.obs.slo/v1``) and report schema (``repro.obs.slo_report/v1``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro import artifact, context
from repro.errors import ConfigError
from repro.obs.analyze import interpolated_percentile

#: Version tag expected at the top of every SLO config document.
SLO_SCHEMA = "repro.obs.slo/v1"

#: Version tag stamped into every evaluation report.
SLO_REPORT_SCHEMA = "repro.obs.slo_report/v1"

#: Recognised objective kinds.
SLO_KINDS = ("latency", "deadline_miss_rate")

#: Default per-objective window: 50 ms of simulated time.
DEFAULT_WINDOW_US = 50_000.0

#: Hard cap on retained samples per objective window.
WINDOW_CAPACITY = 4096


@dataclass(frozen=True)
class SLOObjective:
    """One declarative objective from an SLO config.

    ``op`` / ``stream`` / ``device_kind`` are optional filters; a
    ``None`` filter matches every completion. ``budget`` is the
    allowed bad fraction used for burn-rate accounting; it defaults to
    the percentile complement for latency objectives and to
    ``max_ratio`` for deadline objectives.
    """

    name: str
    kind: str = "latency"
    op: str | None = None
    stream: int | None = None
    device_kind: str | None = None
    percentile: float = 99.0
    threshold_us: float = 0.0
    max_ratio: float = 0.0
    window_us: float = DEFAULT_WINDOW_US
    budget: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ConfigError(
                f"objective {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {SLO_KINDS})")
        if self.window_us <= 0:
            raise ConfigError(
                f"objective {self.name!r}: window_us must be positive")
        if self.kind == "latency":
            if not 0 < self.percentile < 100:
                raise ConfigError(
                    f"objective {self.name!r}: percentile must be in "
                    f"(0, 100), got {self.percentile!r}")
            if self.threshold_us <= 0:
                raise ConfigError(
                    f"objective {self.name!r}: threshold_us must be "
                    f"positive for latency objectives")
        else:
            if not 0 <= self.max_ratio <= 1:
                raise ConfigError(
                    f"objective {self.name!r}: max_ratio must be in "
                    f"[0, 1], got {self.max_ratio!r}")
        if self.budget == 0.0:
            default = ((100.0 - self.percentile) / 100.0
                       if self.kind == "latency" else self.max_ratio)
            object.__setattr__(self, "budget", default)
        if not 0 <= self.budget <= 1:
            raise ConfigError(
                f"objective {self.name!r}: budget must be in [0, 1]")

    def matches(self, op: str, stream: int, device_kind: str) -> bool:
        if self.op is not None and op != self.op:
            return False
        if self.stream is not None and stream != self.stream:
            return False
        if self.device_kind is not None and device_kind != self.device_kind:
            return False
        return True

    def is_bad(self, latency_us: float, deadline_missed: bool) -> bool:
        """Does this completion burn error budget?"""
        if self.kind == "latency":
            return latency_us > self.threshold_us
        return deadline_missed


_NULLABLE_STR = (str, type(None))
_OBJECTIVE_OPTIONAL = {
    "kind": str, "op": _NULLABLE_STR, "stream": (int, type(None)),
    "device_kind": _NULLABLE_STR, "percentile": float,
    "threshold_us": float, "max_ratio": float, "window_us": float,
    "budget": float}


def objective_from_dict(doc: dict) -> SLOObjective:
    """Build an objective from one config entry (strict keys)."""
    artifact.require(doc, "SLO objective", {"name": str},
                     optional=_OBJECTIVE_OPTIONAL)
    unknown = set(doc) - {"name"} - set(_OBJECTIVE_OPTIONAL)
    if unknown:
        raise ConfigError(
            f"SLO objective {doc['name']!r}: unknown keys "
            f"{sorted(unknown)}")
    return SLOObjective(**doc)


def validate_slo_document(doc: dict) -> list[SLOObjective]:
    """Validate a parsed config document; returns its objectives."""
    artifact.require(doc, "SLO config", {"objectives": list},
                     schema=SLO_SCHEMA)
    if not doc["objectives"]:
        raise ConfigError("SLO config needs a non-empty 'objectives' list")
    objectives = [objective_from_dict(entry) for entry in doc["objectives"]]
    names = [objective.name for objective in objectives]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate objective names in SLO config: "
                          f"{sorted(n for n in names if names.count(n) > 1)}")
    return objectives


class _Window:
    """Sim-time sliding window of (end_us, latency_us, bad) samples."""

    __slots__ = ("samples", "observed", "bad")

    def __init__(self) -> None:
        self.samples: deque[tuple[float, float, bool]] = deque()
        self.observed = 0
        self.bad = 0

    def add(self, end_us: float, latency_us: float, bad: bool,
            window_us: float) -> None:
        self.observed += 1
        if bad:
            self.bad += 1
        samples = self.samples
        samples.append((end_us, latency_us, bad))
        cutoff = end_us - window_us
        while samples and samples[0][0] < cutoff:
            samples.popleft()
        while len(samples) > WINDOW_CAPACITY:
            samples.popleft()


class SLOEngine:
    """Streams completions through every objective's window.

    :meth:`observe` takes primitive fields so the traffic engine's
    live completions and offline reqtrace records share the same
    code. Evaluation (:meth:`evaluate`) is on-demand: windows are
    cheap per-completion, percentiles are computed only when asked.
    """

    def __init__(self, objectives: list[SLOObjective]) -> None:
        if not objectives:
            raise ConfigError("SLOEngine needs at least one objective")
        self.objectives = list(objectives)
        self._windows = [_Window() for _ in self.objectives]
        self._instr = None
        registry = context.current().metrics
        if registry is not None:
            self._instr = {
                "observations": registry.counter(
                    "repro_slo_observations_total",
                    help="Completions matched against an SLO objective.",
                    labelnames=("objective",)),
                "breaches": registry.counter(
                    "repro_slo_budget_burn_total",
                    help="Completions that burned SLO error budget.",
                    labelnames=("objective",)),
                "current": registry.gauge(
                    "repro_slo_current_us",
                    help="Current objective value (latency percentile or "
                         "miss ratio scaled by threshold).", unit="us",
                    labelnames=("objective",)),
                "threshold": registry.gauge(
                    "repro_slo_threshold_us",
                    help="Objective threshold.", unit="us",
                    labelnames=("objective",)),
                "breaching": registry.gauge(
                    "repro_slo_breaching",
                    help="1 when the objective is currently violated.",
                    labelnames=("objective",)),
                "burn": registry.gauge(
                    "repro_slo_burn_rate",
                    help="Error-budget burn rate (bad fraction / budget).",
                    labelnames=("objective",)),
            }
            for objective in self.objectives:
                self._instr["threshold"].labels(
                    objective=objective.name).set(
                        objective.threshold_us
                        if objective.kind == "latency"
                        else objective.max_ratio)
            registry.add_collect_hook(self._refresh_gauges)

    # -- ingest -------------------------------------------------------------

    def observe(self, end_us: float, latency_us: float, op: str,
                stream: int, device_kind: str,
                deadline_missed: bool) -> None:
        """Feed one completion to every matching objective window."""
        instr = self._instr
        for objective, window in zip(self.objectives, self._windows):
            if not objective.matches(op, stream, device_kind):
                continue
            bad = objective.is_bad(latency_us, deadline_missed)
            window.add(end_us, latency_us, bad, objective.window_us)
            if instr is not None:
                instr["observations"].labels(
                    objective=objective.name).inc()
                if bad:
                    instr["breaches"].labels(objective=objective.name).inc()

    # -- evaluation ---------------------------------------------------------

    def _evaluate_one(self, objective: SLOObjective,
                      window: _Window) -> dict:
        samples = window.samples
        if objective.kind == "latency":
            latencies = sorted(s[1] for s in samples)
            current = interpolated_percentile(latencies,
                                              objective.percentile)
            threshold = objective.threshold_us
        else:
            current = (sum(1 for s in samples if s[2]) / len(samples)
                       if samples else 0.0)
            threshold = objective.max_ratio
        bad_fraction = (window.bad / window.observed
                        if window.observed else 0.0)
        burn_rate = (bad_fraction / objective.budget
                     if objective.budget > 0 else 0.0)
        return {
            "name": objective.name,
            "kind": objective.kind,
            "filters": {"op": objective.op, "stream": objective.stream,
                        "device_kind": objective.device_kind},
            "window_us": objective.window_us,
            "window_samples": len(samples),
            "observed": window.observed,
            "bad": window.bad,
            "current": current,
            "threshold": threshold,
            "ok": window.observed == 0 or current <= threshold,
            "bad_fraction": bad_fraction,
            "budget": objective.budget,
            "burn_rate": burn_rate,
        }

    def evaluate(self) -> dict:
        """The full ``repro.obs.slo_report/v1`` document."""
        results = [self._evaluate_one(objective, window)
                   for objective, window in zip(self.objectives,
                                                self._windows)]
        return {
            "schema": SLO_REPORT_SCHEMA,
            "objective_count": len(results),
            "ok": all(result["ok"] for result in results),
            "objectives": results,
        }

    def _refresh_gauges(self) -> None:
        instr = self._instr
        if instr is None:
            return
        for objective, window in zip(self.objectives, self._windows):
            result = self._evaluate_one(objective, window)
            labels = {"objective": objective.name}
            instr["current"].labels(**labels).set(result["current"])
            instr["breaching"].labels(**labels).set(
                0.0 if result["ok"] else 1.0)
            instr["burn"].labels(**labels).set(result["burn_rate"])


# -- offline evaluation ------------------------------------------------------

def evaluate_records(records: list[dict],
                     objectives: list[SLOObjective]) -> dict:
    """Evaluate objectives over reqtrace request records (offline).

    Records are replayed in completion order so the sim-time windows
    behave exactly as they would have live.
    """
    engine = SLOEngine(objectives)
    for record in sorted(records, key=lambda r: float(r["end_us"])):
        engine.observe(
            end_us=float(record["end_us"]),
            latency_us=float(record["total_us"]),
            op=str(record["op"]),
            stream=int(record.get("stream", 0)),
            device_kind=str(record.get("device_kind", "")),
            deadline_missed=bool(record.get("deadline_missed", False)),
        )
    return engine.evaluate()


def evaluate_by_device(records: list[dict],
                       objectives: list[SLOObjective]) -> list[dict]:
    """One report row per (``device_kind``, objective), kinds sorted.

    Each mode's probe runs on its own simulated clock, so windowed
    evaluation must not interleave ``end_us`` values across kinds: each
    kind's records are evaluated on their own. A row is an
    :func:`evaluate_records` objective row led by its ``device_kind``
    (``""`` for records without one, and for no records at all).
    """
    groups: dict[str, list] = {}
    for record in records:
        groups.setdefault(str(record.get("device_kind", "")),
                          []).append(record)
    return [{"device_kind": kind, **row}
            for kind in sorted(groups or {"": []})
            for row in evaluate_records(groups.get(kind, []),
                                        objectives)["objectives"]]


__all__ = [
    "DEFAULT_WINDOW_US",
    "SLO_KINDS",
    "SLO_REPORT_SCHEMA",
    "SLO_SCHEMA",
    "SLOEngine",
    "SLOObjective",
    "evaluate_by_device",
    "evaluate_records",
    "objective_from_dict",
    "validate_slo_document",
]

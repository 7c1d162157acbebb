"""Wear provenance: cause-attributed program/erase accounting.

The paper's core trade is *endurance* — Salamander spends capacity to
stretch device lifetime — yet the metrics and SMART surfaces only
report aggregate wear: nothing says *which subsystem burned which
erase cycle*. ``repro.obs.endurance`` is the endurance analogue of
:mod:`repro.obs.reqtrace`'s latency segments: every program/erase at
the :class:`repro.flash.chip.FlashChip` boundary carries a cause label
(:data:`CAUSES`), threaded from FTL host writes, GC victim evacuation,
wear-leveling moves, scrub refreshes and Salamander shrink/regen work.

Design:

* The ledger is the ``endurance`` field of the run context
  (:mod:`repro.context`), ``None`` by default. Chips bind a per-device
  handle **at construction** (:meth:`EnduranceLedger.register_device`);
  with no ledger scoped the hot path is a single ``is None`` test per
  program/erase.
* Causes form a stack (:meth:`EnduranceLedger.cause`) defaulting to
  ``"host"``; layers wrap housekeeping work the way they already wrap
  reqtrace sections (GC passes, scrub evacuations, shrink/regen,
  remount replay), and the innermost cause wins — so a GC pass forced
  *inside* a scrub evacuation charges its relocations to ``gc``, the
  same nesting the latency segments use.
* All counters are plain integers over op indices — no RNG draws, no
  wall clock, no busy-time charges — so scoping a ledger never
  perturbs the determinism contract: reqtrace records, sweep artifacts
  and RNG streams are byte-identical with the ledger on or off, and
  endurance artifacts are byte-identical for any ``--jobs`` value.

The ledger yields an exact measured WAF decomposition::

    WAF = 1 + (gc + wear_level + scrub + shrink + regen + meta) / host

validated against :mod:`repro.ssd.stats` counters (``flash_writes``,
``gc_relocations``, ``wear_relocations``), and a burn-rate lifetime
forecaster: windowed snapshots of mean-PEC versus host work give a
PEC-consumption slope, hence a per-device ETA-to-exhaustion against
the :func:`repro.models.lifetime.tiredness_tradeoff` P/E limits and a
fleet survival projection.

The artifact (``repro.obs.endurance/v1``) is JSONL: one header line
(schema + run metadata) followed by one ``kind: "device"`` record per
registered device. See docs/OBSERVABILITY.md for the schema and the
``repro wear`` CLI that consumes it.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from pathlib import Path

from repro import artifact, context
from repro.errors import ConfigError

#: Version tag on every endurance artifact header.
ENDURANCE_SCHEMA = "repro.obs.endurance/v1"

#: The cause vocabulary, in canonical (artifact) order. ``host`` is the
#: ambient default; ``meta`` is reserved for firmware metadata writes
#: and ``wear_level`` for static wear-leveling moves (both always 0
#: today — no layer does either; the columns are schema); ``remount``
#: wraps the OOB-replay rebuild, which only reads flash, so its
#: program/erase counts are legitimately ~0.
CAUSES = ("host", "gc", "wear_level", "scrub", "shrink", "regen",
          "meta", "remount")

#: Erases between burn-rate snapshots (per device).
DEFAULT_SNAPSHOT_EVERY = 8

#: Bounded snapshot window per device (oldest dropped beyond this).
SNAPSHOT_WINDOW = 128

#: Float tolerance for the WAF-identity check in validation.
WAF_TOLERANCE = 1e-9

_CAUSE_SET = frozenset(CAUSES)


class DeviceEndurance:
    """Cause-attributed wear counters for one registered chip.

    Handed to the chip at construction by
    :meth:`EnduranceLedger.register_device`; the chip calls
    :meth:`record_program` / :meth:`record_erase` from its hot path
    (guarded by one ``is None`` test), and the cause is read from the
    owning ledger's stack at that instant.
    """

    __slots__ = ("name", "blocks", "snapshot_every", "programs",
                 "program_opages", "erases", "block_erases",
                 "total_programs", "total_program_opages", "total_erases",
                 "max_block_erases", "snapshots", "_ledger")

    def __init__(self, ledger: "EnduranceLedger", name: str, blocks: int,
                 snapshot_every: int = DEFAULT_SNAPSHOT_EVERY) -> None:
        if blocks < 1:
            raise ConfigError(f"blocks must be positive, got {blocks!r}")
        if snapshot_every < 1:
            raise ConfigError(
                f"snapshot_every must be >= 1, got {snapshot_every!r}")
        self._ledger = ledger
        self.name = name
        self.blocks = blocks
        self.snapshot_every = snapshot_every
        self.programs = dict.fromkeys(CAUSES, 0)
        self.program_opages = dict.fromkeys(CAUSES, 0)
        self.erases = dict.fromkeys(CAUSES, 0)
        self.block_erases = [0] * blocks
        self.total_programs = 0
        self.total_program_opages = 0
        self.total_erases = 0
        self.max_block_erases = 0
        #: Bounded ring of ``(total_erases, host_opages, mean_pec)``
        #: taken every ``snapshot_every`` erases — the forecaster's
        #: burn-rate window. Pure counters: no clock, no RNG.
        self.snapshots: deque[tuple[int, int, float]] = deque(
            maxlen=SNAPSHOT_WINDOW)

    # -- hot path ----------------------------------------------------------

    def record_program(self, opages: int) -> None:
        """Charge one program (``opages`` data oPages) to the current
        cause."""
        cause = self._ledger._cause_stack[-1]
        self.programs[cause] += 1
        self.program_opages[cause] += opages
        self.total_programs += 1
        self.total_program_opages += opages

    def record_erase(self, block: int) -> None:
        """Charge one block erase to the current cause."""
        cause = self._ledger._cause_stack[-1]
        self.erases[cause] += 1
        count = self.block_erases[block] + 1
        self.block_erases[block] = count
        if count > self.max_block_erases:
            self.max_block_erases = count
        self.total_erases += 1
        if self.total_erases % self.snapshot_every == 0:
            self.snapshots.append((self.total_erases,
                                   self.program_opages["host"],
                                   self.mean_pec()))

    # -- decomposition -----------------------------------------------------

    def mean_pec(self) -> float:
        """Mean per-block erase count (the ledger's PEC view)."""
        return self.total_erases / self.blocks

    def pec_histogram(self) -> dict[str, int]:
        """Per-block PEC histogram: erase count -> number of blocks."""
        histogram: dict[int, int] = {}
        for count in self.block_erases:
            histogram[count] = histogram.get(count, 0) + 1
        return {str(count): histogram[count] for count in sorted(histogram)}

    def waf_terms(self) -> dict[str, int]:
        """Per-cause data-oPage counts (the WAF numerator terms)."""
        return dict(self.program_opages)

    def waf(self) -> float | None:
        """Measured write amplification: ``1 + overhead / host``.

        None until the device has absorbed any host oPage, since the
        decomposition is undefined with a zero denominator.
        """
        host = self.program_opages["host"]
        if host <= 0:
            return None
        overhead = self.total_program_opages - host
        return 1.0 + overhead / host

    # -- forecasting -------------------------------------------------------

    def burn_slope(self) -> float | None:
        """Mean-PEC consumed per host oPage, over the snapshot window.

        None until two snapshots with distinct host-work coordinates
        exist (the slope needs a baseline), or when the window saw no
        host progress (pure-housekeeping churn has no host-work axis).
        """
        if len(self.snapshots) < 2:
            return None
        _, x0, y0 = self.snapshots[0]
        _, x1, y1 = self.snapshots[-1]
        if x1 <= x0:
            return None
        return (y1 - y0) / (x1 - x0)

    def forecast(self, pec_limit: float) -> dict | None:
        """ETA-to-exhaustion against ``pec_limit``, from the burn slope.

        Returns ``{"pec_limit", "mean_pec", "slope_pec_per_host_opage",
        "eta_host_opages"}`` — the host oPages the device can still
        absorb before its mean PEC reaches the limit — or None when no
        slope is measurable yet. A device already past the limit
        reports ``eta_host_opages`` 0.0.
        """
        slope = self.burn_slope()
        if slope is None or slope <= 0.0:
            return None
        mean = self.mean_pec()
        eta = max(0.0, (pec_limit - mean) / slope)
        return {"pec_limit": pec_limit, "mean_pec": mean,
                "slope_pec_per_host_opage": slope,
                "eta_host_opages": eta}

    # -- export ------------------------------------------------------------

    def document(self, pec_limit: float | None = None) -> dict:
        """The canonical per-device artifact record (``kind: "device"``)."""
        record = {
            "kind": "device",
            "name": self.name,
            "blocks": self.blocks,
            "programs": {cause: self.programs[cause] for cause in CAUSES},
            "program_opages": {cause: self.program_opages[cause]
                               for cause in CAUSES},
            "erases": {cause: self.erases[cause] for cause in CAUSES},
            "total_programs": self.total_programs,
            "total_program_opages": self.total_program_opages,
            "total_erases": self.total_erases,
            "mean_pec": self.mean_pec(),
            "max_pec": self.max_block_erases,
            "pec_histogram": self.pec_histogram(),
            "waf": self.waf(),
            "waf_terms": self.waf_terms(),
            "snapshot_count": len(self.snapshots),
            "forecast": (self.forecast(pec_limit)
                         if pec_limit is not None else None),
        }
        return record


class EnduranceLedger:
    """Collects cause-attributed wear for every registered device.

    Args:
        snapshot_every: burn-rate snapshot period, in erases, applied
            to devices registered without an explicit override.
        pec_limit: default P/E-cycle limit embedded in exported
            forecasts (None = export decomposition only).
    """

    def __init__(self, snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
                 pec_limit: float | None = None) -> None:
        if snapshot_every < 1:
            raise ConfigError(
                f"snapshot_every must be >= 1, got {snapshot_every!r}")
        self.snapshot_every = snapshot_every
        self.pec_limit = pec_limit
        self.devices: dict[str, DeviceEndurance] = {}
        self._cause_stack: list[str] = ["host"]
        self._auto_names = 0

    # -- registration ------------------------------------------------------

    def register_device(self, blocks: int, name: str | None = None,
                        snapshot_every: int | None = None,
                        ) -> DeviceEndurance:
        """Register one chip; returns the handle it keeps for life.

        Auto-names run ``wear0``, ``wear1``, ... in registration order
        — per-ledger, so probe forks that each scope a fresh ledger
        produce identical names regardless of process layout.
        """
        if name is None:
            name = f"wear{self._auto_names}"
            self._auto_names += 1
        if name in self.devices:
            raise ConfigError(
                f"endurance device {name!r} already registered")
        device = DeviceEndurance(
            self, name, blocks,
            snapshot_every=(self.snapshot_every if snapshot_every is None
                            else snapshot_every))
        self.devices[name] = device
        return device

    # -- cause stack -------------------------------------------------------

    def current_cause(self) -> str:
        """The cause program/erase work is charged to right now."""
        return self._cause_stack[-1]

    @contextmanager
    def cause(self, name: str):
        """Scope-attribute chip work to ``name`` (innermost wins)."""
        if name not in _CAUSE_SET:
            raise ConfigError(
                f"unknown wear cause {name!r}; the vocabulary is "
                f"{list(CAUSES)}")
        self._cause_stack.append(name)
        try:
            yield
        finally:
            self._cause_stack.pop()

    # -- export ------------------------------------------------------------

    def device_records(self, pec_limit: float | None = None) -> list[dict]:
        """Per-device records in registration order (canonical)."""
        if pec_limit is None:
            pec_limit = self.pec_limit
        return [device.document(pec_limit)
                for device in self.devices.values()]

    def header(self, meta: dict | None = None) -> dict:
        merged = {"devices": len(self.devices),
                  "snapshot_every": self.snapshot_every,
                  "causes": list(CAUSES), **(meta or {})}
        return _header(meta=merged)

    def export_jsonl(self, path: str | Path, meta: dict | None = None,
                     pec_limit: float | None = None) -> Path:
        """Write the header plus one JSON object per device."""
        return write_endurance(path, self.device_records(pec_limit),
                               header=self.header(meta))

    def clear(self) -> None:
        self.devices.clear()
        self._cause_stack = ["host"]
        self._auto_names = 0


def enabled() -> bool:
    return context.current().endurance is not None


# -- artifact I/O ------------------------------------------------------------

def _header(meta: dict | None = None) -> dict:
    return {"kind": "header", "name": "endurance", "time": 0.0,
            "schema": ENDURANCE_SCHEMA, "meta": meta or {}}


def write_endurance(path: str | Path, records: list[dict],
                    header: dict | None = None,
                    meta: dict | None = None) -> Path:
    """Write a ``repro.obs.endurance/v1`` JSONL artifact.

    ``records`` are device dicts (from :meth:`EnduranceLedger.
    device_records` or a merged multi-mode probe run); ``header``
    overrides the default header (``meta`` feeds the default one).
    """
    return artifact.write_jsonl(path, [header or _header(meta), *records])


def load_endurance(path: str | Path) -> tuple[dict, list[dict]]:
    """Read an endurance artifact; returns ``(header, device_records)``.

    Raises :class:`~repro.errors.ConfigError` on missing files, corrupt
    lines or a wrong schema tag — the CLI maps that to exit code 2.
    """
    return artifact.read_records(path, "endurance artifact",
                                 ENDURANCE_SCHEMA, "device")


_RECORD_FIELDS = {
    "name": str, "blocks": int, "programs": dict, "program_opages": dict,
    "erases": dict, "total_programs": int, "total_program_opages": int,
    "total_erases": int, "mean_pec": float, "max_pec": int,
    "pec_histogram": dict, "waf": (float, type(None))}
_FORECAST_FIELDS = {"eta_host_opages": float, "mean_pec": float,
                    "pec_limit": float, "slope_pec_per_host_opage": float}


def validate_endurance_records(records: list[dict],
                               tolerance: float = WAF_TOLERANCE) -> None:
    """Check every device record's shape and the WAF identity.

    Per-cause counters must cover exactly :data:`CAUSES` and sum to the
    recorded totals; when the device absorbed host oPages, ``waf`` must
    equal ``1 + overhead/host`` within ``tolerance``. The CI smoke job
    runs this over CLI-produced artifacts.
    """
    for index, record in enumerate(records):
        what = f"endurance record {index}"
        artifact.require(record, what, _RECORD_FIELDS,
                         optional={"forecast": (dict, type(None))})
        if record.get("forecast"):
            artifact.require(record["forecast"], f"{what} forecast",
                             _FORECAST_FIELDS)
        for counter, total_key in (("programs", "total_programs"),
                                   ("program_opages",
                                    "total_program_opages"),
                                   ("erases", "total_erases")):
            by_cause = record[counter]
            if set(by_cause) != _CAUSE_SET:
                raise ConfigError(
                    f"{what}: {counter} causes "
                    f"{sorted(by_cause)} != {sorted(_CAUSE_SET)}")
            artifact.require(by_cause, f"{what} {counter}",
                             dict.fromkeys(CAUSES, int))
            total = sum(by_cause.values())
            if total != record[total_key]:
                raise ConfigError(
                    f"{what}: {counter} sum {total} "
                    f"!= {total_key} {record[total_key]}")
        histogram = record["pec_histogram"]
        artifact.require(histogram, f"{what} pec_histogram",
                         dict.fromkeys(histogram, int))
        histogram_blocks = sum(histogram.values())
        if histogram_blocks != record["blocks"]:
            raise ConfigError(
                f"{what}: pec_histogram covers "
                f"{histogram_blocks} blocks of {record['blocks']}")
        host = record["program_opages"]["host"]
        waf = record["waf"]
        if host > 0:
            expected = 1.0 + (record["total_program_opages"] - host) / host
            if waf is None or abs(waf - expected) > tolerance * max(
                    1.0, abs(expected)):
                raise ConfigError(
                    f"{what}: waf {waf!r} breaks the "
                    f"identity 1 + overhead/host = {expected!r}")
        elif waf is not None:
            raise ConfigError(
                f"{what}: waf {waf!r} with no host "
                f"oPages absorbed")


# -- fleet forecasting --------------------------------------------------------

def forecast_rows(records: list[dict],
                  pec_limit_l0: float | None = None) -> list[dict]:
    """Per-device, per-tiredness-level ETA rows from artifact records.

    For each device carrying a measured burn slope, recompute the ETA
    against every :func:`repro.models.lifetime.tiredness_tradeoff`
    level limit (scaled from the device's own L0 limit unless
    ``pec_limit_l0`` overrides it) — the ledger-side view of the
    paper's lifetime-extension envelope. Devices without a measurable
    slope yield no rows.
    """
    from repro.models.lifetime import tiredness_tradeoff

    rows: list[dict] = []
    for record in records:
        forecast = record.get("forecast")
        if not forecast:
            continue
        slope = forecast["slope_pec_per_host_opage"]
        if slope <= 0.0:
            continue
        mean = forecast["mean_pec"]
        base_limit = (pec_limit_l0 if pec_limit_l0 is not None
                      else forecast["pec_limit"])
        for tradeoff in tiredness_tradeoff(pec_limit_l0=base_limit):
            eta = max(0.0, (tradeoff.pec_limit - mean) / slope)
            rows.append({"device": record["name"],
                         "level": tradeoff.level,
                         "pec_limit": tradeoff.pec_limit,
                         "mean_pec": mean,
                         "slope_pec_per_host_opage": slope,
                         "eta_host_opages": eta})
    return rows


def fleet_survival(records: list[dict], horizon_host_opages: float,
                   ) -> dict:
    """Fraction of forecastable devices whose ETA clears the horizon."""
    etas = [record["forecast"]["eta_host_opages"] for record in records
            if record.get("forecast")]
    surviving = sum(1 for eta in etas if eta >= horizon_host_opages)
    return {"devices": len(records), "forecastable": len(etas),
            "horizon_host_opages": horizon_host_opages,
            "surviving": surviving,
            "survival_fraction": (surviving / len(etas) if etas
                                  else None)}


def publish_wear_metrics(records: list[dict]) -> None:
    """Push the ``repro_wear_*`` families for exported device records.

    Publication happens *after* measurement (the ledger's hot path
    never touches the metrics registry), mirroring how the perf
    harness publishes ``repro_perf_*`` once the clock stops.
    """
    from repro.obs.instruments import wear_instruments

    for record in records:
        instruments = wear_instruments(record["name"])
        for cause in CAUSES:
            instruments.programs(cause).inc(record["programs"][cause])
            instruments.program_opages(cause).inc(
                record["program_opages"][cause])
            instruments.erases(cause).inc(record["erases"][cause])
        instruments.mean_pec.set(record["mean_pec"])
        instruments.max_pec.set(record["max_pec"])
        if record.get("waf") is not None:
            instruments.waf.set(record["waf"])
        forecast = record.get("forecast")
        if forecast:
            instruments.eta_host_opages.set(forecast["eta_host_opages"])


__all__ = [
    "CAUSES",
    "DEFAULT_SNAPSHOT_EVERY",
    "ENDURANCE_SCHEMA",
    "SNAPSHOT_WINDOW",
    "DeviceEndurance",
    "EnduranceLedger",
    "enabled",
    "fleet_survival",
    "forecast_rows",
    "load_endurance",
    "publish_wear_metrics",
    "validate_endurance_records",
    "write_endurance",
]

"""Reqtrace-instrumented IO probes: one traffic-engine preset per mode.

A ``probe`` scenario of ``repro run`` (:mod:`repro.scenarios`) and the
``reqtrace.jsonl`` / ``endurance.jsonl`` it writes into its run
directory need a workload that loads the queue and the FTL of every
device flavour. A probe is one :func:`repro.workloads.engine.run_cell`
of :func:`probe_config` on an aged device, with request tracing scoped
at 1-in-``every`` sampling and a fresh wear ledger. What it measures is
queue wait, device service, GC stalls and read retries under tiredness:
at the shipped settings no sampled request carries a segment other than
``device``, ``gc``, ``queue_wait`` and ``read_retry``, the ledger
records no ``shrink`` or ``regen`` program, and the ``shrink`` and
``regen`` probes can come out identical (a Salamander device that never
shrinks behaves the same in both modes). Its output is a pure function
of ``(mode, seed, every, requests)``, so :func:`run_probes` returns
byte-identical results for any ``jobs``, which the determinism test
pins.

For an ``agreement`` scenario the module also measures the §4.2
claims at fixed cells (:func:`agreement_tables`), on ``flat`` devices
and a functional chip, each beside its analytic model.

The module also owns :func:`build_queue_device`, which the engine
imports as a module global. The engine is therefore imported lazily
here, inside the functions that need it.
"""

from __future__ import annotations

from repro import context
from repro.errors import (
    ConfigError,
    DeviceBrickedError,
    DeviceReadOnlyError,
    MinidiskError,
    OutOfSpaceError,
)
from repro.obs import endurance
from repro.obs.reqtrace import ReqTracer
from repro.rng import DEFAULT_SEED

#: Device flavours a probe can drive (a probe scenario's ``modes``).
PROBE_MODES = ("baseline", "cvss", "shrink", "regen")

#: Device flavours :func:`build_queue_device` can build: the probe
#: modes plus ``flat`` — a plain functional :class:`PageMappedFTL` over
#: a variation-free chip programmed at one uniform tiredness level
#: (``level``), the fixture the traffic and M/D/c claim rows measure.
BUILD_MODES = PROBE_MODES + ("flat",)

#: Device-side failures a cell rides through: a tired device
#: legitimately shrinks, goes read-only, runs out of space or bricks
#: mid-workload — that *is* the interference being measured.
_PROBE_ERRORS = (DeviceBrickedError, DeviceReadOnlyError,
                 MinidiskError, OutOfSpaceError)

#: Default request sampling: 1 request in this many is traced.
PROBE_EVERY = 16

#: Default window length: requests the probe cell completes.
PROBE_REQUESTS = 400

#: The probe cell's ``EngineConfig`` fields. A low ``pec_limit`` makes
#: wear (read retries, level promotions) show within a few hundred
#: requests; eight tenants put one on each of a Salamander device's
#: seven starting minidisks; the duration is long enough that
#: ``max_requests`` is what ends the window.
_PROBE_CELL = dict(
    tenants=8, cells=1, duration_us=1e12, arrival="poisson",
    utilisation=0.7, mix=(0.0, 1.0, 0.0, 0.0), read_fraction=0.6,
    deadline_factor=3.0, admission="none", queue_depth=32,
    host_streams=1, blocks=12, fpages_per_block=8, channels=2,
    pec_limit=12.0, msize_lbas=32, headroom_fraction=0.25,
    fill_fraction=0.5)

#: Full-device overwrite passes before the window: the most that keeps
#: every mode's window error share under 5 % over seeds 2025, 23066,
#: 11, 20250, 77003, 7 and 1234 at ``pec_limit`` 12. 14 passes put read
#: retries in 8-20 of each mode's ~40 sampled records with no share
#: above 4 %; 15 take ShrinkS/RegenS to 4-12 % and CVSS to 27-35 % at
#: three seeds, and 16 leave CVSS erroring on 90 % or more of its window
#: at six.
_AGE_PASSES = 14


def build_queue_device(mode: str, seed: int, *,
                       blocks: int, fpages_per_block: int, channels: int,
                       pec_limit: float, msize_lbas: int,
                       headroom_fraction: float, fill_fraction: float,
                       level: int = 0, host_streams: int = 1):
    """Build a queue-ready device of the requested flavour.

    The result is a pure function of the arguments (no wall clock, RNG
    seeded from ``seed`` only).
    """
    from repro.flash.chip import FlashChip
    from repro.flash.geometry import FlashGeometry
    from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
    from repro.salamander.device import SalamanderConfig, SalamanderSSD
    from repro.ssd.cvss import CVSSConfig, CVSSDevice
    from repro.ssd.device import BaselineSSD, SSDConfig
    from repro.ssd.ftl import FTLConfig, PageMappedFTL

    geometry = FlashGeometry(blocks=blocks,
                             fpages_per_block=fpages_per_block,
                             channels=channels)
    ftl = FTLConfig(overprovision=0.25, buffer_opages=8,
                    host_streams=host_streams)
    policy = TirednessPolicy(geometry=geometry)
    if mode == "flat":
        if not 0 <= level < policy.dead_level:
            raise ConfigError(
                f"level must be a usable tiredness level, got {level!r}")
        chip = FlashChip(geometry, seed=seed, variation_sigma=0.0,
                         inject_errors=False)
        if level:
            for fpage in range(geometry.total_fpages):
                chip.set_level(fpage, level)
        n_lbas = int(chip.usable_slots_total() * fill_fraction)
        return PageMappedFTL(chip, n_lbas, ftl)
    model = calibrate_power_law(policy, pec_limit_l0=pec_limit)
    chip = FlashChip(geometry, rber_model=model, policy=policy,
                     seed=seed, variation_sigma=0.3,
                     inject_errors=False)
    n_lbas = int(geometry.total_opage_slots * fill_fraction)
    if mode == "baseline":
        # Default brick threshold (2.5% bad blocks) is under one block
        # on a probe-sized chip — the first grown-bad block would end
        # the measurement. Raise it so the baseline stays measurable
        # while its pages tire.
        return BaselineSSD(chip, SSDConfig(ftl=ftl, brick_threshold=0.6),
                           n_lbas=n_lbas)
    if mode == "cvss":
        return CVSSDevice(chip, CVSSConfig(ftl=ftl), n_lbas=n_lbas)
    if mode in ("shrink", "regen"):
        return SalamanderSSD(chip, SalamanderConfig(
            mode=mode, msize_lbas=msize_lbas,
            headroom_fraction=headroom_fraction, ftl=ftl))
    raise ConfigError(
        f"mode must be one of {BUILD_MODES}, got {mode!r}")


def probe_config(mode: str, requests: int = PROBE_REQUESTS):
    """The probe cell's :class:`~repro.workloads.engine.EngineConfig`
    against ``mode``, its window capped at ``requests``."""
    from repro.workloads.engine import EngineConfig

    if mode not in PROBE_MODES:
        raise ConfigError(
            f"mode must be one of {PROBE_MODES}, got {mode!r}")
    return EngineConfig(**_PROBE_CELL, mode=mode, max_requests=requests)


def run_probe(mode: str, seed: int = DEFAULT_SEED, every: int = PROBE_EVERY,
              requests: int = PROBE_REQUESTS) -> dict:
    """Drive one instrumented probe cell against ``mode``.

    Returns ``{"mode", "records", "meta", "cell", "endurance"}`` where
    ``records`` are the sampled ``repro.obs.reqtrace/v1`` request dicts,
    ``cell`` is the engine's cell record (every completion, sampled or
    not) and ``endurance`` carries the ``repro.obs.endurance/v1`` device
    records of a fresh per-probe wear ledger (cause-attributed program
    and erase counts for the whole probe, aging included).
    """
    from repro.workloads.engine import run_cell

    config = probe_config(mode, requests)
    # A fresh ledger per probe: registration order (hence device names)
    # is per-process, so records are byte-identical for any jobs
    # layout. The ledger draws no RNG and charges no busy time, so the
    # reqtrace records are unchanged by its presence.
    tracer = ReqTracer(seed=seed, every=every)
    ledger = endurance.EnduranceLedger(pec_limit=config.pec_limit)
    with context.scoped(reqtrace=tracer, endurance=ledger):
        cell = run_cell(config, 0, seed, age_passes=_AGE_PASSES)
    return {
        "mode": mode,
        "records": list(tracer.records),
        "meta": {"seed": seed, "every": every, "sampled": tracer.sampled,
                 "dropped": tracer.dropped, "mode": mode},
        "cell": cell,
        "endurance": ledger.device_records(),
    }


def run_probes(modes: tuple[str, ...] = PROBE_MODES,
               seed: int = DEFAULT_SEED, every: int = PROBE_EVERY,
               requests: int = PROBE_REQUESTS,
               jobs: int = 1) -> list[dict]:
    """Run :func:`run_probe` for each mode, optionally in parallel.

    ``jobs > 1`` fans modes out over a fork-context process pool (the
    :mod:`repro.sim.parallel` discipline); results are returned in
    ``modes`` order either way and are byte-identical to ``jobs=1``. An
    unknown mode is a :class:`ConfigError` from its worker.
    """
    from repro.sim.parallel import parallel_map
    return parallel_map(_probe_star,
                        [(mode, seed, every, requests) for mode in modes],
                        jobs=jobs)


def _probe_star(args: tuple) -> dict:
    return run_probe(*args)


def merged_endurance(results: list[dict]) -> list[dict]:
    """All probe endurance records, device names prefixed by mode.

    Each probe runs a fresh per-process ledger whose auto-names restart
    at ``wear0``; prefixing with the mode (``shrink/wear0``) keeps the
    merged artifact's names unique and canonical regardless of how
    modes were distributed across worker processes.
    """
    return [{**record, "name": f"{result['mode']}/{record['name']}"}
            for result in results for record in result["endurance"]]


def reqtrace_meta(results: list[dict]) -> dict:
    """The ``meta`` block of a merged ``reqtrace.jsonl`` artifact."""
    first = results[0]["meta"]
    return {"seed": first["seed"], "every": first["every"],
            "modes": [result["mode"] for result in results],
            "sampled": sum(result["meta"]["sampled"] for result in results),
            "dropped": sum(result["meta"]["dropped"] for result in results)}


def endurance_meta(results: list[dict], records: list[dict]) -> dict:
    """The ``meta`` block of a merged ``endurance.jsonl`` artifact."""
    return {"seed": results[0]["meta"]["seed"],
            "modes": [result["mode"] for result in results],
            "pec_limit": _PROBE_CELL["pec_limit"],
            "devices": len(records),
            "snapshot_every": endurance.DEFAULT_SNAPSHOT_EVERY,
            "causes": list(endurance.CAUSES)}


# -- the §4.2 agreement measurements ------------------------------------------

#: The cells of an agreement scenario: scan levels, M/D/c
#: ``(utilisation, channels)`` points (one channel, where M/D/1 is
#: exact, and four for Erlang-C), and RegenS levels of the p99 cells.
THROUGHPUT_LEVELS = (1, 2, 3)
QUEUEING_POINTS = ((0.3, 1), (0.5, 1), (0.7, 1), (0.5, 4))
TRAFFIC_LEVELS = (0, 1, 2, 3)

#: NCQ depth of the M/D/c cells: well above the queue length at their
#: loads, so backpressure does not bend the open-loop arrivals.
QUEUEING_DEPTH = 64


def measured_throughput(level: int) -> dict:
    """Sequential-scan throughput at uniform ``level`` relative to L0,
    and ``(P - L)/P``: a tiny functional chip programmed entirely at the
    level, every fPage scanned, data bytes over accumulated expected
    device time — the Fig. 3c bench's measurement, reduced to one level."""
    from repro.flash.chip import FlashChip
    from repro.flash.geometry import FlashGeometry
    from repro.models.performance import throughput_factor

    geometry = FlashGeometry(blocks=4, fpages_per_block=16)

    def scan(lv: int) -> float:
        chip = FlashChip(geometry, seed=1, variation_sigma=0.0,
                         inject_errors=False)
        total = geometry.total_fpages
        if lv:
            for fpage in range(total):
                chip.set_level(fpage, lv)
        capacity = chip.policy.data_opages(lv)
        for fpage in range(total):
            chip.program(fpage, [b"x"] * capacity)
        busy_program = chip.stats.busy_us
        data_bytes = 0
        for fpage in range(total):
            payloads, _latency = chip.read(fpage)
            data_bytes += len(payloads) * geometry.opage_bytes
        return data_bytes / (chip.stats.busy_us - busy_program)

    p = geometry.opages_per_fpage
    return {"level": level, "opages_per_fpage": p,
            "measured_factor": scan(level) / scan(0),
            "analytic_factor": throughput_factor(level, p)}


def _flat_read_cell(seed: int, **overrides) -> tuple[dict, float]:
    """One traffic-engine cell of open-loop Poisson tenants issuing
    uniform reads at a flat (variation-free, error-free) device with no
    admission control: the window record and the offered IOPS."""
    from repro.workloads.engine import EngineConfig, run_cell

    config = EngineConfig(cells=1, mode="flat", read_fraction=1.0,
                          mix=(0.0, 1.0, 0.0, 0.0), admission="none",
                          host_streams=1, **overrides)
    record = run_cell(config, 0, seed=seed)
    return record["window"], record["arrival_per_us"] * 1e6


def measured_queueing_latency(utilisation: float, n_requests: int = 1500,
                              channels: int = 1) -> dict:
    """One tenant's ``n_requests`` open-loop point reads at
    ``utilisation`` on ``channels`` channels (:func:`_flat_read_cell`):
    the window's measured mean latency and wait, and
    :func:`repro.models.queueing.mdc_latency_us` at its mean service
    time and the same arrival rate, so callers compare like for like."""
    from repro.models.queueing import mdc_latency_us

    window, iops = _flat_read_cell(
        seed=7, tenants=1, duration_us=1e12, utilisation=utilisation,
        queue_depth=QUEUEING_DEPTH, channels=channels,
        max_requests=n_requests)
    service_us = window["mean_service_us"]
    latency_us = window["mean_latency_us"]
    return {
        "utilisation": utilisation, "channels": channels,
        "queue_depth": QUEUEING_DEPTH, "service_us": service_us,
        "iops": iops, "requests": window["requests"],
        "measured_mean_latency_us": latency_us,
        "measured_mean_wait_us": latency_us - service_us,
        "analytic_mean_latency_us": mdc_latency_us(service_us, iops,
                                                   channels=channels),
    }


def measured_traffic_p99(level: int) -> dict:
    """Eight open-loop tenants of fPage-spanning (``read_span = 4``)
    reads at utilisation 0.6 on two channels of a flat device at RegenS
    ``level``: the window's pooled tenant p99, and
    :func:`repro.models.queueing.mdc_latency_quantile_us` at its mean
    service time and the configured arrival rate. Span reads, because a
    single oPage sense costs the same at every level: only they carry
    the ``4/(4-L)`` per-byte cost into service time and latency."""
    from repro.models.queueing import mdc_latency_quantile_us

    window, iops = _flat_read_cell(
        seed=11, tenants=8, duration_us=240_000.0, level=level,
        utilisation=0.6, queue_depth=256, channels=2, read_span=4)
    service_us = window["mean_service_us"]
    return {
        "level": level, "channels": 2, "service_us": service_us,
        "iops": iops, "requests": window["requests"],
        "measured_p99_latency_us": window["p99_latency_us"],
        "analytic_p99_latency_us": mdc_latency_quantile_us(
            service_us, iops, channels=2, percentile=99.0),
    }


def _measure(cell: tuple) -> dict:
    measure, arguments = cell
    return measure(*arguments)


def agreement_tables(jobs: int = 1) -> dict[str, list[dict]]:
    """The ``throughput``, ``queueing`` and ``traffic_p99`` rows of an
    agreement scenario, ``jobs`` cells at a time. Every cell runs under
    the default run context and is a pure function of the constants
    above, so the rows are byte-identical for any ``jobs``."""
    from repro.sim.parallel import parallel_map

    tables = {"throughput": [(measured_throughput, (level,))
                             for level in THROUGHPUT_LEVELS],
              "queueing": [(measured_queueing_latency, (rho, 1500, c))
                           for rho, c in QUEUEING_POINTS],
              "traffic_p99": [(measured_traffic_p99, (level,))
                              for level in TRAFFIC_LEVELS]}
    rows = iter(parallel_map(_measure, sum(tables.values(), []), jobs=jobs))
    return {name: [next(rows) for _ in cells]
            for name, cells in tables.items()}


__all__ = [
    "BUILD_MODES",
    "PROBE_EVERY",
    "PROBE_MODES",
    "PROBE_REQUESTS",
    "QUEUEING_POINTS",
    "THROUGHPUT_LEVELS",
    "TRAFFIC_LEVELS",
    "agreement_tables",
    "build_queue_device",
    "endurance_meta",
    "measured_queueing_latency",
    "measured_throughput",
    "measured_traffic_p99",
    "merged_endurance",
    "probe_config",
    "reqtrace_meta",
    "run_probe",
    "run_probes",
]

"""Reqtrace-instrumented IO probes: one measured workload per device mode.

``repro slo --measure`` (and the ``--reqtrace-out`` flags on
``run``/``fleet``) need a workload that actually exercises the
attribution paths — queue contention, GC stalls, read retries under
tiredness, Salamander shrink/regen — on every device flavour. This
module provides it: a deterministic open-loop Poisson read/write mix
driven through a real :class:`~repro.io.queue.DeviceQueue` against a
freshly built device, with request tracing scoped at 1-in-``every``
sampling.

Determinism contract (same as the sweep runner): a probe's output is a
pure function of ``(mode, seed, config)``. Each mode builds its own
chip/device/tracer, sampling phases derive from ``fork_rng`` over the
seed, and nothing reads the wall clock — so :func:`run_probes` returns
byte-identical records whether modes run sequentially (``jobs=1``) or
in a fork-based process pool (``jobs>1``), which the determinism test
pins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import context
from repro.errors import (
    ConfigError,
    DeviceBrickedError,
    DeviceReadOnlyError,
    MinidiskError,
    OutOfSpaceError,
)
from repro.io.queue import DeviceQueue
from repro.io.request import IORequest
from repro.obs.endurance import EnduranceLedger
from repro.obs.reqtrace import ReqTracer
from repro.rng import DEFAULT_SEED, fork_rng, make_rng

#: Device flavours a probe can drive (CLI ``--mode`` values).
PROBE_MODES = ("baseline", "cvss", "shrink", "regen")


@dataclass(frozen=True)
class ProbeConfig:
    """Knobs for one probe run (identical across modes).

    The defaults build a deliberately small, tired device: low
    ``pec_limit`` so wear (read retries, level promotions, Salamander
    rebalancing) shows up within a few hundred requests, and enough
    overwrite pressure that GC runs inside the measured window.
    """

    n_requests: int = 400
    utilisation: float = 0.7
    queue_depth: int = 32
    write_fraction: float = 0.4
    deadline_factor: float = 3.0
    blocks: int = 12
    fpages_per_block: int = 8
    channels: int = 2
    pec_limit: float = 12.0
    every: int = 16
    msize_lbas: int = 32
    headroom_fraction: float = 0.25
    #: Logical fill fraction for the flat (baseline/CVSS) devices —
    #: low enough that block retirement during aging cannot starve GC.
    fill_fraction: float = 0.5
    #: Full-device overwrite passes before the measured window, driven
    #: directly at the device: accumulates PEC so tiredness effects
    #: (read retries, level promotions, Salamander rebalancing) are
    #: live while the probe measures. 16 passes at ``pec_limit`` 12
    #: lands every mode at visible retry rates with all modes alive.
    age_passes: int = 16

    def __post_init__(self) -> None:
        if not 0.0 < self.utilisation < 1.0:
            raise ConfigError(
                f"utilisation must be in (0, 1), got {self.utilisation!r}")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError(
                f"write_fraction must be in [0, 1], "
                f"got {self.write_fraction!r}")
        if self.n_requests < 1:
            raise ConfigError(
                f"n_requests must be positive, got {self.n_requests!r}")
        if self.every < 1:
            raise ConfigError(
                f"every must be >= 1, got {self.every!r}")


#: Device flavours :func:`build_queue_device` can build — the probe
#: modes plus ``flat``: a plain functional :class:`PageMappedFTL` over
#: a variation-free chip programmed at one uniform tiredness level
#: (``level``), the fixture the traffic-vs-M/D/c claim rows degrade
#: through RegenS L = 0..3.
BUILD_MODES = PROBE_MODES + ("flat",)


def build_queue_device(mode: str, seed: int, *,
                       blocks: int, fpages_per_block: int, channels: int,
                       pec_limit: float, msize_lbas: int,
                       headroom_fraction: float, fill_fraction: float,
                       level: int = 0, variation_sigma: float = 0.3,
                       host_streams: int = 1):
    """Build a queue-ready device of the requested flavour.

    Shared by the reqtrace probes and the traffic engine so both drive
    the same device constructions; the result is a pure function of the
    arguments (no wall clock, RNG seeded from ``seed`` only).
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
    if mode == "flat":
        policy = TirednessPolicy(geometry=geometry)
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
    policy = TirednessPolicy(geometry=geometry)
    model = calibrate_power_law(policy, pec_limit_l0=pec_limit)
    chip = FlashChip(geometry, rber_model=model, policy=policy,
                     seed=seed, variation_sigma=variation_sigma,
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


def _build_device(mode: str, seed: int, config: ProbeConfig):
    if mode not in PROBE_MODES:
        raise ConfigError(
            f"mode must be one of {PROBE_MODES}, got {mode!r}")
    return build_queue_device(
        mode, seed, blocks=config.blocks,
        fpages_per_block=config.fpages_per_block,
        channels=config.channels, pec_limit=config.pec_limit,
        msize_lbas=config.msize_lbas,
        headroom_fraction=config.headroom_fraction,
        fill_fraction=config.fill_fraction)


#: Device-side failures a probe rides through: a tired probe device
#: legitimately shrinks, goes read-only, runs out of space or bricks
#: mid-workload — that *is* the interference being measured.
_PROBE_ERRORS = (DeviceBrickedError, DeviceReadOnlyError,
                 MinidiskError, OutOfSpaceError)


def run_probe(mode: str, seed: int = DEFAULT_SEED,
              config: ProbeConfig | None = None) -> dict:
    """Drive one instrumented probe workload against ``mode``.

    Returns ``{"mode", "records", "meta", "summary", "endurance"}``
    where ``records`` are the sampled ``repro.obs.reqtrace/v1`` request
    dicts, ``summary`` aggregates the queue's measured counters (every
    completion, sampled or not), and ``endurance`` carries the
    ``repro.obs.endurance/v1`` device records from a fresh per-probe
    wear ledger (cause-attributed program/erase counts for the whole
    probe, aging included).
    """
    config = config or ProbeConfig()
    workload_rng = fork_rng(make_rng(seed), "probe", mode)
    # A fresh ledger per probe: registration order (hence device names)
    # is per-process, so records are byte-identical for any --jobs
    # layout. The ledger draws no RNG and charges no busy time, so the
    # reqtrace records are unchanged by its presence.
    tr = ReqTracer(seed=seed, every=config.every)
    led = EnduranceLedger(pec_limit=config.pec_limit)
    with context.scoped(reqtrace=tr, endurance=led):
        device = _build_device(mode, seed, config)
        queue = DeviceQueue(device, depth=config.queue_depth,
                            device_kind=mode)
        salamander = mode in ("shrink", "regen")

        def targets() -> list[tuple[int | None, int]]:
            """Current (mdisk, span) address spaces."""
            if salamander:
                return [(m.mdisk_id, m.size_lbas)
                        for m in device.active_minidisks()]
            return [(None, int(device.capacity_lbas))]

        # Aging: overwrite the device directly (no queue, unsampled) to
        # accumulate PEC before the measured window.
        for _ in range(config.age_passes):
            for mdisk, span in targets():
                try:
                    for lba in range(span):
                        if mdisk is None:
                            device.write(lba, bytes([lba & 0xFF]) * 16)
                        else:
                            device.write(mdisk, lba,
                                         bytes([lba & 0xFF]) * 16)
                except _PROBE_ERRORS:
                    break

        # Closed-loop prefill through the queue: reads must hit flash,
        # and the overwrites below must find a populated device.
        for mdisk, span in targets():
            for lba in range(span):
                try:
                    queue.execute(IORequest(
                        op="write", lba=lba, mdisk_id=mdisk,
                        payloads=[bytes([lba & 0xFF]) * 16]))
                except _PROBE_ERRORS:
                    break
        try:
            queue.execute(IORequest(op="flush"))
        except _PROBE_ERRORS:
            pass

        # Pilot read: the deterministic service-time scale for
        # deadlines. Arrival pacing uses the *mean* measured service so
        # far (prefill writes included — they carry the drain/GC cost
        # reads alone would hide), otherwise the write share saturates
        # the device and every request just measures queue backlog.
        pilot_targets = targets()
        pilot_mdisk = pilot_targets[0][0] if pilot_targets else None
        try:
            service_us = queue.execute(
                IORequest(op="read", lba=0, mdisk_id=pilot_mdisk),
                at_us=0.0).service_us
        except _PROBE_ERRORS:
            service_us = 0.0
        if service_us <= 0.0:
            service_us = 100.0  # fallback pacing; keeps the probe alive
        # Blend the two by the workload mix: reads cost one sense,
        # writes amortise drain/GC cost (the prefill mean).
        write_service_us = max(queue.stats.mean_service_us, service_us)
        pacing_us = (config.write_fraction * write_service_us
                     + (1.0 - config.write_fraction) * service_us)

        arrival_per_us = (config.utilisation * config.channels
                          / pacing_us)
        deadline_us = config.deadline_factor * pacing_us
        t = queue.clock_us
        for i in range(config.n_requests):
            t += float(workload_rng.exponential(1.0 / arrival_per_us))
            live = targets()
            if not live:
                break
            mdisk, span = live[i % len(live)]
            lba = int(workload_rng.integers(0, span))
            if workload_rng.random() < config.write_fraction:
                # stream stays 0 on writes: only the plain FTL accepts a
                # write-stream hint, and the queue forwards it when set.
                request = IORequest(
                    op="write", lba=lba, mdisk_id=mdisk,
                    payloads=[bytes([i & 0xFF]) * 16],
                    deadline_us=t + deadline_us)
            else:
                request = IORequest(
                    op="read", lba=lba, mdisk_id=mdisk, stream=i % 2,
                    deadline_us=t + deadline_us)
            try:
                queue.submit(request, at_us=t)
            except _PROBE_ERRORS:
                continue
            if queue.inflight >= config.queue_depth:
                queue.poll()
        queue.poll()

        stats = queue.stats
        return {
            "mode": mode,
            "records": list(tr.records),
            "meta": {"seed": seed, "every": config.every,
                     "sampled": tr.sampled, "dropped": tr.dropped,
                     "mode": mode},
            "summary": {
                "submitted": stats.submitted,
                "dispatched": stats.dispatched,
                "errors": stats.errors,
                "deadline_misses": stats.deadline_misses,
                "deadline_miss_ratio": (
                    stats.deadline_misses / stats.dispatched
                    if stats.dispatched else 0.0),
                "mean_latency_us": stats.mean_latency_us,
                "mean_wait_us": stats.mean_wait_us,
                "mean_service_us": stats.mean_service_us,
                "sampled": tr.sampled,
            },
            "endurance": led.device_records(),
        }


def run_probes(modes: tuple[str, ...] = PROBE_MODES,
               seed: int = DEFAULT_SEED,
               config: ProbeConfig | None = None,
               jobs: int = 1) -> list[dict]:
    """Run :func:`run_probe` for each mode, optionally in parallel.

    ``jobs > 1`` fans modes out over a fork-context process pool (the
    :mod:`repro.sim.parallel` discipline); results are returned in
    ``modes`` order either way and are byte-identical to ``jobs=1``.
    """
    config = config or ProbeConfig()
    for mode in modes:
        if mode not in PROBE_MODES:
            raise ConfigError(
                f"mode must be one of {PROBE_MODES}, got {mode!r}")
    from repro.sim.parallel import parallel_map
    return parallel_map(_probe_star,
                        [(mode, seed, config) for mode in modes],
                        jobs=jobs)


def _probe_star(args: tuple) -> dict:
    return run_probe(*args)


def merged_records(results: list[dict]) -> list[dict]:
    """All probe records in canonical (mode order, completion) order."""
    out: list[dict] = []
    for result in results:
        out.extend(result["records"])
    return out


def merged_endurance(results: list[dict]) -> list[dict]:
    """All probe endurance records, device names prefixed by mode.

    Each probe runs a fresh per-process ledger whose auto-names restart
    at ``wear0``; prefixing with the mode (``shrink/wear0``) keeps the
    merged artifact's names unique and canonical regardless of how
    modes were distributed across worker processes.
    """
    out: list[dict] = []
    for result in results:
        for record in result.get("endurance", ()):
            out.append({**record,
                        "name": f"{result['mode']}/{record['name']}"})
    return out


def probe_config_from_args(every: int | None = None,
                           n_requests: int | None = None) -> ProbeConfig:
    """A :class:`ProbeConfig` with CLI overrides applied."""
    config = ProbeConfig()
    overrides = {}
    if every is not None:
        overrides["every"] = every
    if n_requests is not None:
        overrides["n_requests"] = n_requests
    return replace(config, **overrides) if overrides else config


__all__ = [
    "BUILD_MODES",
    "PROBE_MODES",
    "ProbeConfig",
    "build_queue_device",
    "merged_endurance",
    "merged_records",
    "probe_config_from_args",
    "run_probe",
    "run_probes",
]

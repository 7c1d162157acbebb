"""Timed hot-path workloads for the perf harness.

Each function builds its fixture *outside* the timed region, times one
hot loop with ``time.perf_counter()``, and returns
``{"ops", "wall_s", "meta"}`` for :func:`benchmarks.perf.harness.run`.
Workloads are deterministic (fixed seeds) so run-to-run variance is
machine noise, not simulation variance.

``ftl_gc_heavy_macro`` is the headline macro-bench: a 90%-full device under
uniform random overwrites, which keeps the garbage collector
continuously busy — the workload the FTL fast path (incremental valid
counts, cached free-block index, list-backed mapping tables, batched
chip I/O) was built for.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import numpy as np

from repro import context
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.io import DeviceQueue
from repro.io.request import OP_READ, OP_WRITE
from repro.obs.endurance import EnduranceLedger
from repro.obs.reqtrace import ReqTracer
from repro.sim.fleet import FleetConfig, forget_hardware, simulate_fleet
from repro.ssd.ftl import FTLConfig, PageMappedFTL


# -- GC-heavy steady-state writes (macro) ------------------------------------

MACRO_GEOMETRY = FlashGeometry(blocks=64, fpages_per_block=64, channels=4)
MACRO_OPS = 20_000


def _build_macro_ftl() -> PageMappedFTL:
    chip = FlashChip(MACRO_GEOMETRY, seed=7, variation_sigma=0.3)
    return PageMappedFTL.for_chip(
        chip, FTLConfig(overprovision=0.12, buffer_opages=64))


def ftl_gc_heavy_macro() -> dict:
    """Steady-state GC-heavy overwrites on a 90%-full device."""
    ftl = _build_macro_ftl()
    payload = bytes(64)
    fill = int(ftl.n_lbas * 0.9)
    for lba in range(fill):          # untimed warm-up: reach steady state
        ftl.write(lba, payload)
    lbas = np.random.default_rng(42).integers(0, fill, size=MACRO_OPS)
    lba_list = [int(lba) for lba in lbas]
    start = time.perf_counter()
    for lba in lba_list:
        ftl.write(lba, payload)
    ftl.flush()
    wall_s = time.perf_counter() - start
    waf = ftl.stats.flash_writes / max(ftl.stats.host_writes, 1)
    return {"ops": MACRO_OPS, "wall_s": wall_s,
            "meta": {"waf": round(waf, 3), "fill_fraction": 0.9,
                     "blocks": MACRO_GEOMETRY.blocks}}


# -- buffered write path (micro) ---------------------------------------------

MICRO_OPS = 6_000


def ftl_write_micro() -> dict:
    """Sequential-then-random writes on a small, lightly filled device:
    exercises the buffer/flush/allocation path with little GC."""
    geometry = FlashGeometry(blocks=32, fpages_per_block=32, channels=2)
    chip = FlashChip(geometry, seed=11, variation_sigma=0.2)
    ftl = PageMappedFTL.for_chip(
        chip, FTLConfig(overprovision=0.25, buffer_opages=16))
    payload = bytes(32)
    half = ftl.n_lbas // 2
    lbas = [int(x) for x in
            np.random.default_rng(13).integers(0, half, size=MICRO_OPS)]
    start = time.perf_counter()
    for lba in lbas:
        ftl.write(lba, payload)
    ftl.flush()
    wall_s = time.perf_counter() - start
    return {"ops": MICRO_OPS, "wall_s": wall_s,
            "meta": {"n_lbas": ftl.n_lbas}}


# -- buffered write path with wear ledger (micro) ----------------------------

def ftl_write_endurance_micro() -> dict:
    """:func:`ftl_write_micro` with the wear-provenance ledger scoped
    — the measured side of the ≤5% endurance overhead contract
    (docs/OBSERVABILITY.md). Identical fixture and loop; the only delta
    is the per-device handle the chip binds at construction. The
    ledger's records are exported next to ``BENCH_perf.json`` so every
    perf run leaves a wear decomposition snapshot.
    """
    led = EnduranceLedger(pec_limit=3000.0)
    with context.scoped(endurance=led):
        geometry = FlashGeometry(blocks=32, fpages_per_block=32,
                                 channels=2)
        chip = FlashChip(geometry, seed=11, variation_sigma=0.2)
        ftl = PageMappedFTL.for_chip(
            chip, FTLConfig(overprovision=0.25, buffer_opages=16))
        payload = bytes(32)
        half = ftl.n_lbas // 2
        lbas = [int(x) for x in
                np.random.default_rng(13).integers(0, half,
                                                   size=MICRO_OPS)]
        start = time.perf_counter()
        for lba in lbas:
            ftl.write(lba, payload)
        ftl.flush()
        wall_s = time.perf_counter() - start
        handle = chip._endurance
        from benchmarks.perf.harness import export_endurance
        export_endurance("ftl_write_endurance_micro", led)
        return {"ops": MICRO_OPS, "wall_s": wall_s,
                "meta": {"n_lbas": ftl.n_lbas,
                         "programs": handle.total_programs,
                         "erases": handle.total_erases,
                         "waf": round(handle.waf() or 0.0, 3)}}


# -- queued IO roundtrip (micro) ---------------------------------------------

IO_MICRO_OPS = 8_000


def _io_micro_fixture() -> tuple[DeviceQueue, list[int]]:
    """A half-filled, flushed 32x32 FTL behind a fresh queue, and the
    ``IO_MICRO_OPS`` LBAs the point-read micros read, in order."""
    geometry = FlashGeometry(blocks=32, fpages_per_block=32, channels=2)
    chip = FlashChip(geometry, seed=23, variation_sigma=0.2)
    ftl = PageMappedFTL.for_chip(
        chip, FTLConfig(overprovision=0.25, buffer_opages=16))
    payload = bytes(32)
    fill = ftl.n_lbas // 2
    for lba in range(fill):
        ftl.write(lba, payload)
    ftl.flush()
    lbas = [int(x) for x in
            np.random.default_rng(29).integers(0, fill, size=IO_MICRO_OPS)]
    return DeviceQueue(ftl), lbas


def _io_micro_result(queue: DeviceQueue, wall_s: float, **meta) -> dict:
    stats = queue.stats
    return {"ops": IO_MICRO_OPS, "wall_s": wall_s,
            "meta": {"dispatched": stats.dispatched,
                     "errors": stats.errors,
                     "mean_service_us": round(stats.mean_service_us, 3),
                     "mean_latency_us": round(stats.mean_latency_us, 3),
                     **meta}}


# -- field-level IO roundtrip (micro) ----------------------------------------

def io_dispatch_roundtrip_micro() -> dict:
    """Single-LBA reads through :class:`repro.io.queue.DeviceQueue`.

    Times the full request path — one ``dispatch(OP_READ, lba)`` per
    request: the device call, the chip-time measurement and the
    completion accounting — on top of the underlying device read.
    Guards the queue's per-request cost: every queued IO of the traffic
    engine and the cluster rides on it."""
    queue, lbas = _io_micro_fixture()
    dispatch = queue.dispatch
    start = time.perf_counter()
    for lba in lbas:
        dispatch(OP_READ, lba)
    wall_s = time.perf_counter() - start
    return _io_micro_result(queue, wall_s)


# -- queued IO roundtrip with request tracing (micro) ------------------------

def io_roundtrip_reqtrace_micro() -> dict:
    """:func:`io_dispatch_roundtrip_micro` with request tracing scoped at
    the default 1-in-64 sampling — the measured side of the ≤5% reqtrace
    overhead contract (docs/OBSERVABILITY.md). Identical fixture and
    loop; the only delta is the tracer the queue binds at construction.
    """
    tracer = ReqTracer(seed=3, every=64)
    with context.scoped(reqtrace=tracer):
        queue, lbas = _io_micro_fixture()
        dispatch = queue.dispatch
        start = time.perf_counter()
        for lba in lbas:
            dispatch(OP_READ, lba)
        wall_s = time.perf_counter() - start
        return _io_micro_result(queue, wall_s, sampled=tracer.sampled,
                                every=64)


# -- OOB-replay remount (micro) ----------------------------------------------

def remount_micro() -> dict:
    """Time ``PageMappedFTL.remount``'s full-device OOB replay scan.

    Ops unit: fPages scanned (the rebuild is linear in flash size)."""
    geometry = FlashGeometry(blocks=48, fpages_per_block=48, channels=2)
    chip = FlashChip(geometry, seed=17, variation_sigma=0.2)
    config = FTLConfig(overprovision=0.2, buffer_opages=32)
    ftl = PageMappedFTL.for_chip(chip, config)
    payload = bytes(48)
    rng = np.random.default_rng(19)
    fill = int(ftl.n_lbas * 0.8)
    for lba in range(fill):
        ftl.write(lba, payload)
    for lba in rng.integers(0, fill, size=4_000):
        ftl.write(int(lba), payload)       # stale copies for replay to skip
    ftl.flush()
    entries = [(lba, ftl.buffer.get(lba)) for lba in ftl.buffer.keys()]
    rounds = 3
    start = time.perf_counter()
    for _ in range(rounds):
        recovered = PageMappedFTL.remount(chip, ftl.n_lbas, config, entries)
    wall_s = time.perf_counter() - start
    ops = rounds * geometry.total_fpages
    return {"ops": ops, "wall_s": wall_s,
            "meta": {"rounds": rounds, "live_lbas": recovered.live_lbas()}}


# -- multi-tenant traffic engine (micro) -------------------------------------

TRAFFIC_CONFIG = dict(tenants=32, duration_us=600_000.0, cells=1,
                      utilisation=0.8, admission="defer",
                      read_fraction=0.5)


def traffic_engine_micro() -> dict:
    """One deterministic traffic-engine cell, end to end.

    Times :func:`repro.workloads.engine.run_cell` — generator draws,
    arrival-process scheduling, admission control, DeviceQueue dispatch
    and per-tenant accounting — for a 32-tenant open/defer mix over a
    600 ms simulated window. Ops unit: queue-dispatched requests
    (prefill + pilot probes + traffic window), so the floor guards the
    per-request cost of the whole engine loop, not just the device."""
    from repro.workloads.engine import EngineConfig, run_cell

    config = EngineConfig(**TRAFFIC_CONFIG)
    start = time.perf_counter()
    cell = run_cell(config, 0, seed=31)
    wall_s = time.perf_counter() - start
    queue = cell["queue"]
    return {"ops": queue["dispatched"], "wall_s": wall_s,
            "meta": {"tenants": config.tenants,
                     "window_requests": cell["window"]["requests"],
                     "errors": queue["errors"],
                     "mean_service_us": queue["mean_service_us"],
                     "p99_latency_us": cell["window"]["p99_latency_us"]}}


# -- diFS placement + failure polling (micro) ---------------------------------

PLACEMENT_NODES = 6
PLACEMENT_CHUNKS = 120
PLACEMENT_OPS = 1200


def difs_placement_micro() -> dict:
    """Chunk updates and failure polls over ~580 minidisk volumes.

    Six RegenS devices contribute ~97 minidisk volumes each, so every
    ``update_chunk`` makes three placements over the whole population
    and every ``poll_failures`` asks which of them died — the diFS
    metadata path, with fresh flash so no volume actually fails. The
    columnar volume index (``repro.difs.placement.VolumeIndex``) answers
    both per *device*. Chunks are small (4 oPages) so the IO stack stays
    a minority of the loop: the pre-index per-volume scan ran it at
    ~500 ops/s, under the enforcement threshold (half the floor), so
    reintroducing such a scan fails the gate. Ops unit: chunk updates."""
    from repro.difs.cluster import Cluster, ClusterConfig
    from repro.salamander.device import SalamanderConfig, SalamanderSSD

    geometry = FlashGeometry(blocks=64, fpages_per_block=32)
    cluster = Cluster(ClusterConfig(replication=3, chunk_lbas=4,
                                    opage_bytes=geometry.opage_bytes),
                      seed=17)
    for node in range(PLACEMENT_NODES):
        cluster.add_node(f"n{node}")
        chip = FlashChip(geometry, seed=node + 1, variation_sigma=0.2)
        cluster.add_device(f"n{node}", SalamanderSSD(chip, SalamanderConfig(
            mode="regen", msize_lbas=64, headroom_fraction=0.25,
            ftl=FTLConfig(overprovision=0.25, buffer_opages=8))))
    payload = bytes(32)
    for index in range(PLACEMENT_CHUNKS):
        cluster.create_chunk(f"c{index}", payload)
    targets = [f"c{int(t)}" for t in np.random.default_rng(19).integers(
        0, PLACEMENT_CHUNKS, size=PLACEMENT_OPS)]
    start = time.perf_counter()
    for chunk_id in targets:
        cluster.update_chunk(chunk_id, payload)
        cluster.poll_failures()
    wall_s = time.perf_counter() - start
    return {"ops": PLACEMENT_OPS, "wall_s": wall_s,
            "meta": {"volumes": len(cluster.volumes),
                     "live_volumes": cluster.live_volume_count(),
                     "volume_failures":
                         cluster.recovery.stats.volume_failures}}


# -- write-until-death harness on a many-minidisk device (micro) -------------

LIFETIME_MICRO_OPS = 12_000
#: (blocks of 8 fPages, untimed warm-up writes): at mSize 32 that is 816
#: and 23 minidisks, each warmed until GC has reached its steady state.
LIFETIME_MICRO_SHAPE = (1024, 72_000)
LIFETIME_SMALL_SHAPE = (32, 6_000)


def _lifetime_run(blocks: int, warm_writes: int) -> tuple[float, int]:
    """(wall seconds, minidisks) of ``LIFETIME_MICRO_OPS`` harness writes."""
    from repro.salamander.device import SalamanderConfig, SalamanderSSD
    from repro.sim.lifetime import run_write_lifetime

    chip = FlashChip(FlashGeometry(blocks=blocks, fpages_per_block=8),
                     seed=23, variation_sigma=0.2)
    device = SalamanderSSD(chip, SalamanderConfig(
        mode="regen", msize_lbas=32, headroom_fraction=0.25,
        ftl=FTLConfig(overprovision=0.25, buffer_opages=8)))
    rng = np.random.default_rng(29)
    run_write_lifetime(device, utilization=0.6, max_writes=warm_writes,
                       seed=rng)
    start = time.perf_counter()
    result = run_write_lifetime(device, utilization=0.6,
                                max_writes=LIFETIME_MICRO_OPS, seed=rng)
    wall_s = time.perf_counter() - start
    assert result.host_writes == LIFETIME_MICRO_OPS, result.death_cause
    assert not device.events, "a transition landed in the timed region"
    return wall_s, len(device.minidisks)


def salamander_lifetime_micro() -> dict:
    """``run_write_lifetime`` on a RegenS device with ~800 minidisks.

    The harness asks the device for its active set and its capacity once
    per host write, so this is the bench of the minidisk census
    (``repro.salamander.minidisk.MinidiskTable``): with the census kept,
    a write costs the same on 816 minidisks as on 23; when both were
    recounted from the minidisk table on every write the 816-minidisk
    device ran at ~1.5k writes/s, 12x slower per write than the small
    one and under the enforcement threshold (half the floor). Both
    devices are warmed, untimed, until GC is in its steady state; the
    flash is fresh (default endurance), so no minidisk comes or goes.
    ``meta["cost_vs_small"]`` is the per-write cost relative to the
    23-minidisk device, timed right before. Ops unit: host oPage
    writes."""
    small_wall, small_minidisks = _lifetime_run(*LIFETIME_SMALL_SHAPE)
    wall_s, minidisks = _lifetime_run(*LIFETIME_MICRO_SHAPE)
    return {"ops": LIFETIME_MICRO_OPS, "wall_s": wall_s,
            "meta": {"minidisks": minidisks,
                     "small_minidisks": small_minidisks,
                     "small_ops_per_sec":
                         round(LIFETIME_MICRO_OPS / small_wall, 1),
                     "cost_vs_small": round(wall_s / small_wall, 3)}}


# -- 16-LBA unit writes down the whole write stack (micro) -------------------

UNIT_WRITE_LBAS = 16
UNIT_WRITE_UNITS = 1_500
UNIT_WRITE_WARMUP = 1_000


def unit_write_micro() -> dict:
    """16-LBA unit writes: DeviceQueue -> RegenS -> FTL write kernel.

    One diFS chunk replica is one 16-LBA ``write`` request, and every
    layer under it makes one call for it (``docs/PERFORMANCE.md``,
    "Kernels and their twins"): ``DeviceQueue._serve`` ->
    ``SalamanderSSD.write_range`` -> ``PageMappedFTL.write_range``, whose
    kernel is the only per-LBA loop. The 64x32 chip is filled to its
    advertised capacity (75 % of the flash) and overwritten, untimed,
    until GC is in its steady state; the flash is fresh, so no minidisk
    comes or goes. Pages are what ``Replication.encode`` hands the
    cluster for a 32-byte chunk: one padded page and fifteen references
    to the shared zero page. The per-LBA ``device.write`` loop this
    replaced ran at about three quarters of the kernel's rate (64-72k
    against 86-103k, best of 3). Ops unit: host LBAs."""
    from repro.difs.redundancy import Replication
    from repro.salamander.device import SalamanderConfig, SalamanderSSD

    geometry = FlashGeometry(blocks=64, fpages_per_block=32)
    chip = FlashChip(geometry, seed=37, variation_sigma=0.2)
    device = SalamanderSSD(chip, SalamanderConfig(
        mode="regen", msize_lbas=64, headroom_fraction=0.25,
        ftl=FTLConfig(overprovision=0.25, buffer_opages=8)))
    queue = DeviceQueue(device)
    pages = Replication(1).encode(bytes([7]) * 32, UNIT_WRITE_LBAS,
                                  geometry.opage_bytes)[0]
    minidisks = len(device.minidisks)
    slots = device.msize_lbas // UNIT_WRITE_LBAS

    def write_unit(unit: int) -> None:
        mdisk, slot = divmod(unit, slots)
        error = queue.dispatch(OP_WRITE, slot * UNIT_WRITE_LBAS,
                               UNIT_WRITE_LBAS, pages, mdisk)[1]
        if error is not None:
            raise error

    units = [int(u) for u in np.random.default_rng(41).integers(
        0, minidisks * slots, size=UNIT_WRITE_WARMUP + UNIT_WRITE_UNITS)]
    for unit in range(minidisks * slots):       # fill, then reach
        write_unit(unit)                        # GC steady state
    for unit in units[:UNIT_WRITE_WARMUP]:
        write_unit(unit)
    erases = device.stats.erases
    start = time.perf_counter()
    for unit in units[UNIT_WRITE_WARMUP:]:
        write_unit(unit)
    wall_s = time.perf_counter() - start
    assert not device.events, "a transition landed in the timed region"
    stats = queue.stats
    return {"ops": UNIT_WRITE_UNITS * UNIT_WRITE_LBAS, "wall_s": wall_s,
            "meta": {"minidisks": minidisks,
                     "fill_fraction": round(
                         device.live_lbas() / geometry.total_opage_slots, 3),
                     "dispatched": stats.dispatched,
                     "errors": stats.errors,
                     "timed_erases": device.stats.erases - erases,
                     "waf": round(device.stats.write_amplification, 3)}}


# -- 4-LBA ranged reads through the queue (micro) ----------------------------

RANGE_READ_SPAN = 4
RANGE_READ_REQUESTS = 20_000
#: Every twentieth request is a single-LBA write instead (5 %).
RANGE_READ_WRITE_EVERY = 20


def range_read_micro() -> dict:
    """4-LBA ranged reads: DeviceQueue.dispatch -> the FTL's range read
    kernel -> a whole-fPage ``FlashChip.read``.

    The inner loop of the ``traffic_scan`` end-to-end workload without
    the engine above it (``docs/PERFORMANCE.md``, "Kernels and their
    twins"): the engine's own flat level-2 64x32 device, every LBA of
    its 50 % fill written and flushed, then random ``read_span=4``
    requests with 5 % single-LBA writes between them, which keep a few
    members of some ranges in the NVRAM buffer and scatter others over
    fresh fPages. At level 2 an fPage holds two oPages, so a 4-LBA range
    costs about three senses (the paper's ``P / (P - L)`` at work); the
    per-LBA resolve loop and per-sense cost derivation this replaced ran
    at roughly two thirds of the kernel's rate. Ops unit: requests."""
    from repro.io.probe import build_queue_device
    from repro.io.request import OP_FLUSH, OP_READ_RANGE, OP_WRITE

    device = build_queue_device(
        "flat", 43, blocks=64, fpages_per_block=32, channels=2,
        pec_limit=60.0, msize_lbas=32, headroom_fraction=0.25,
        fill_fraction=0.5, level=2)
    queue = DeviceQueue(device, depth=64, device_kind="flat-l2")
    dispatch = queue.dispatch
    for lba in range(device.n_lbas):
        dispatch(OP_WRITE, lba, 1, [bytes([lba & 0xFF]) * 16])
    dispatch(OP_FLUSH)
    starts = np.random.default_rng(47).integers(
        0, device.n_lbas - RANGE_READ_SPAN + 1,
        size=RANGE_READ_REQUESTS).tolist()
    payloads = [bytes(16)]
    reads = (RANGE_READ_REQUESTS
             - RANGE_READ_REQUESTS // RANGE_READ_WRITE_EVERY)
    senses = device.chip.stats.reads
    start = time.perf_counter()
    for index, lba in enumerate(starts, 1):
        if index % RANGE_READ_WRITE_EVERY:
            dispatch(OP_READ_RANGE, lba, RANGE_READ_SPAN)
        else:
            dispatch(OP_WRITE, lba, 1, payloads)
    wall_s = time.perf_counter() - start
    stats = queue.stats
    return {"ops": RANGE_READ_REQUESTS, "wall_s": wall_s,
            "meta": {"n_lbas": device.n_lbas,
                     "dispatched": stats.dispatched,
                     "errors": stats.errors,
                     "ranged_reads": reads,
                     "senses_per_range": round(
                         (device.chip.stats.reads - senses) / reads, 3),
                     "remembered_costs": len(device.chip._read_costs)}}


# -- analytic fleet step (micro) ---------------------------------------------

FLEET_MICRO_CONFIG = FleetConfig(
    devices=16,
    geometry=FlashGeometry(blocks=64, fpages_per_block=64),
    pec_limit_l0=3000.0,
    variation_sigma=0.35,
    dwpd=2.0,
    write_amplification=2.0,
    afr=0.01,
    horizon_days=1825,
    step_days=10,
)


def fleet_step_micro() -> dict:
    """One columnar fleet-model run at the break-even size; ops =
    device-steps advanced.

    A step costs a fixed ~40-50 us of numpy dispatch whatever the range
    holds, so 16 devices is about where the columnar walk meets the
    per-device loop it replaced (docs/PERFORMANCE.md, "Kernels and
    their twins"): this bench watches that fixed cost, and
    ``fleet_wide_micro`` the per-device one. Every round is a cold
    run: the hardware tables a round before it drew are forgotten.
    """
    steps = FLEET_MICRO_CONFIG.horizon_days // FLEET_MICRO_CONFIG.step_days
    forget_hardware()
    start = time.perf_counter()
    result = simulate_fleet(FLEET_MICRO_CONFIG, "regen", seed=2025)
    wall_s = time.perf_counter() - start
    ops = FLEET_MICRO_CONFIG.devices * steps
    return {"ops": ops, "wall_s": wall_s,
            "meta": {"mode": "regen",
                     "mean_lifetime_days":
                         round(result.mean_lifetime_days(), 1)}}


# -- wide fleet run (micro) --------------------------------------------------

#: Array-scale shape (10k+ devices should be cheap to model): wide
#: enough that the device rows split into several banded groups, short
#: enough to stay in the CI budget. ``REPRO_PERF_FLEET_DEVICES`` scales
#: it (the 10,000-device entry in BENCH_perf.json).
FLEET_WIDE_CONFIG = replace(FLEET_MICRO_CONFIG, devices=2048,
                            horizon_days=365, step_days=5)


def _fleet_devices(default: int) -> int:
    return int(os.environ.get("REPRO_PERF_FLEET_DEVICES", "0")) or default


def fleet_wide_micro() -> dict:
    """One wide fleet run in one process; ops = device-steps advanced.

    The wall includes drawing and sorting every device's variation
    factors, which is most of a one-year run — in every round, so the
    tables an earlier round drew are forgotten first.
    """
    config = replace(FLEET_WIDE_CONFIG,
                     devices=_fleet_devices(FLEET_WIDE_CONFIG.devices))
    steps = config.horizon_days // config.step_days
    forget_hardware()
    start = time.perf_counter()
    result = simulate_fleet(config, "regen", seed=2025)
    wall_s = time.perf_counter() - start
    return {"ops": config.devices * steps, "wall_s": wall_s,
            "meta": {"mode": "regen", "devices": config.devices,
                     "survivors": int(result.functioning[-1])}}


# -- sharded fleet run (micro) -----------------------------------------------

#: Default sharded-fleet bench shape. Big enough that per-shard work
#: dominates pool overheads; short horizon keeps the CI single-core run
#: in budget. ``REPRO_PERF_FLEET_DEVICES`` / ``REPRO_PERF_FLEET_JOBS``
#: scale it up on real hardware (the 10k-device / 8-job configuration
#: the speedup claim in docs/SHARDING.md was measured with).
FLEET_SHARDED_CONFIG = FleetConfig(
    devices=512,
    geometry=FlashGeometry(blocks=64, fpages_per_block=64),
    pec_limit_l0=3000.0,
    variation_sigma=0.35,
    dwpd=2.0,
    write_amplification=2.0,
    afr=0.01,
    horizon_days=365,
    step_days=5,
    shards=8,
)


def fleet_sharded_micro() -> dict:
    """One sharded fleet run; ops = device-steps advanced.

    Times :func:`repro.sim.shard.simulate_fleet_sharded` end to end —
    worker fan-out, per-shard RNG replay, device slicing, and the
    canonical shard-major merge. Worker count defaults to all cores but
    one (capped at the shard count), so the gate floor must hold at
    ``jobs=1``: on a single-core runner the bench measures the sharding
    *overhead* over the serial path, on real hardware the speedup. When
    at least two workers run, a serial reference run is timed too and
    the measured speedup lands in ``meta``. Both runs draw their own
    hardware, so the speedup compares cold with cold.
    """
    from repro.sim.shard import simulate_fleet_sharded

    devices = _fleet_devices(FLEET_SHARDED_CONFIG.devices)
    config = replace(FLEET_SHARDED_CONFIG, devices=devices)
    jobs = int(os.environ.get("REPRO_PERF_FLEET_JOBS", "0")) \
        or max(1, min(config.shards, (os.cpu_count() or 1) - 1))
    steps = config.horizon_days // config.step_days
    forget_hardware()
    start = time.perf_counter()
    result = simulate_fleet_sharded(config, "regen", seed=2025, jobs=jobs)
    wall_s = time.perf_counter() - start
    meta = {"mode": "regen", "devices": devices,
            "shards": config.shards, "jobs": jobs,
            "mean_lifetime_days": round(result.mean_lifetime_days(), 1)}
    if jobs >= 2:
        forget_hardware()
        serial_start = time.perf_counter()
        simulate_fleet(config, "regen", seed=2025)
        serial_wall = time.perf_counter() - serial_start
        meta["serial_wall_s"] = round(serial_wall, 4)
        meta["speedup"] = round(serial_wall / wall_s, 2)
    return {"ops": devices * steps, "wall_s": wall_s, "meta": meta}

"""The five workloads, driven through the public API of ``src/repro``.

Each workload is three functions: ``setup(seed, quick)`` builds the
fixture and generates the inputs (untimed, counted in ``setup_s``),
``run(fixture)`` is the timed region, ``check(fixture, raw)`` verifies
the outputs and reduces them to an :class:`Outcome`. ``--seed`` is the
only source of randomness: every seed the program is handed is forked
from it here, and the op schedules are drawn here.

Sizes are fixed (``quick`` selects a second, tiny fixed size for the
smoke test), so every count and simulated statistic repeats exactly for
a seed; only host time varies. One timed region is ~2-5 s on the 2-core
sizing box — a run repeats it in fresh processes until ``--seconds`` of
timed region have been measured.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.difs.cluster import Cluster, ClusterConfig
from repro.errors import ReproError
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.rng import fork_rng, make_rng
from repro.salamander.device import SalamanderConfig, SalamanderSSD
# Entry points are called as module attributes (``fleet.simulate_fleet``),
# not imported by name, so the traced run's wrappers are the ones called.
from repro.sim import fleet, lifetime, shard
from repro.ssd.device import BaselineSSD, SSDConfig
from repro.ssd.ftl import FTLConfig
from repro.workloads import engine


class Outcome(NamedTuple):
    ops: int                    # operations attempted in the timed region
    failed: int                 # of which raised or completed in error
    problems: list[str]         # violated output invariants
    sim: dict[str, float]       # the workload's simulated metrics
    stats: Any                  # full simulated statistics (digested)
    counts: dict[str, float]    # layer work/waste counts
    parts: dict[str, dict]      # informational sub-timings


class Workload(NamedTuple):
    setup: Callable[[int, bool], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], Outcome]
    #: Extra per-layer measurements made after a traced run, untraced.
    extras: Callable[[Any], dict[str, float]] | None = None


def _seed(seed: int, *keys: str) -> int:
    return int(fork_rng(make_rng(seed), "e2e", *keys).integers(0, 2**31))


def _device_counts(devices) -> dict[str, float]:
    """Sum the FTL and chip counters the layers publish on ``stats``."""
    ftl = [device.stats for device in devices]
    chip = [device.chip.stats for device in devices]
    host_writes = sum(s.host_writes for s in ftl)
    relocations = sum(s.gc_relocations for s in ftl)
    return {
        "ssd.ftl.host_writes": host_writes,
        "ssd.ftl.gc_relocations": relocations,
        "ssd.ftl.gc_relocations_per_host_write":
            relocations / host_writes if host_writes else 0.0,
        "flash.chip.programs": sum(s.programs for s in chip),
        "flash.chip.reads": sum(s.reads for s in chip),
        "flash.chip.erases": sum(s.erases for s in chip),
        "salamander.device.decommissions":
            sum(s.decommissioned_minidisks for s in ftl),
        "salamander.device.regenerations":
            sum(s.regenerated_minidisks for s in ftl),
    }


def _waf(devices) -> float:
    return (sum(d.stats.flash_writes for d in devices)
            / sum(d.stats.host_writes for d in devices))


def _waf_problems(devices) -> list[str]:
    """Every flash oPage program is a host write, a GC relocation or a
    wear relocation (the write buffer may absorb host overwrites, so
    the identity is an upper bound, not an equality)."""
    problems = []
    for index, device in enumerate(devices):
        s = device.stats
        if s.flash_writes > (s.host_writes + s.gc_relocations
                             + s.wear_relocations):
            problems.append(
                f"device {index}: flash_writes {s.flash_writes} exceed "
                f"host + GC + wear relocations")
    return problems


def _device_reports(devices) -> list[dict]:
    return [{"ftl": device.stats.snapshot(),
             "chip": device.chip.stats.snapshot()} for device in devices]


# -- traffic_mixed / traffic_scan --------------------------------------------

def _traffic(name: str, min_read_share: float, **overrides) -> Workload:
    def setup(seed: int, quick: bool) -> dict:
        size = (dict(tenants=16, duration_us=60_000.0) if quick else
                dict(tenants=64, duration_us=1_600_000.0, blocks=64,
                     fpages_per_block=32))
        config = engine.EngineConfig(
            cells=2, arrival="mmpp", closed_loop_fraction=0.25,
            utilisation=0.6, **size, **overrides)
        return {"config": config, "seed": _seed(seed, name)}

    def run(fixture: dict):
        # run_traffic builds its devices itself and returns no FTL
        # statistics; keep a reference to what it builds (one call per
        # cell) so sim_waf and the device reports can be read afterwards.
        devices = []
        build = engine.build_queue_device

        def capture(*args, **kwargs):
            devices.append(build(*args, **kwargs))
            return devices[-1]

        engine.build_queue_device = capture
        try:
            document = engine.run_traffic(fixture["config"], seed=fixture["seed"],
                                   jobs=1)
        finally:
            engine.build_queue_device = build
        return document, devices

    def check(fixture: dict, raw) -> Outcome:
        document, devices = raw
        totals = document["totals"]
        cells = document["cells"]
        dispatched = sum(cell["queue"]["dispatched"] for cell in cells)
        errors = sum(cell["queue"]["errors"] for cell in cells)
        problems = _waf_problems(devices)
        for row in document["tenants"]:
            if row["offered"] != row["admitted"] + row["shed"]:
                problems.append(
                    f"tenant {row['tenant']}: offered != admitted + shed")
        if totals["errors"]:
            problems.append(f"{totals['errors']} tenant requests errored")
        if totals["reads"] < min_read_share * totals["completed"]:
            problems.append(
                f"read share {totals['reads']}/{totals['completed']} "
                f"below {min_read_share}")
        counts = _device_counts(devices)
        if (fixture["config"].mode == "regen"
                and counts["salamander.device.decommissions"]):
            problems.append("an mDisk was decommissioned in the window")
        counts.update({
            "workloads.engine.deferrals": totals["deferrals"],
            "workloads.engine.deferrals_per_admitted":
                totals["deferrals"] / totals["admitted"],
            "io.queue.dispatched": dispatched,
            "io.queue.errors": errors,
        })
        sim = {
            "sim_p99_latency_us": statistics.median(
                cell["window"]["p99_latency_us"] for cell in cells),
            "sim_waf": _waf(devices),
        }
        return Outcome(
            ops=dispatched, failed=errors, problems=problems, sim=sim,
            stats={"document": document,
                   "devices": _device_reports(devices)},
            counts=counts, parts={})

    return Workload(setup, run, check)


# -- device_wearout -----------------------------------------------------------

#: How each discipline is expected to leave service: the baseline
#: bricks at its bad-block threshold; a Salamander device shrinks below
#: the replacement floor or runs out of space on the way there.
_DEATHS = {
    "baseline": ("DeviceBrickedError",),
    "shrink": ("capacity-floor", "OutOfSpaceError"),
    "regen": ("capacity-floor", "OutOfSpaceError"),
}


def _wearout_setup(seed: int, quick: bool) -> dict:
    geometry = FlashGeometry(blocks=16 if quick else 32, fpages_per_block=8)
    policy = TirednessPolicy(geometry=geometry)
    model = calibrate_power_law(policy, pec_limit_l0=12 if quick else 30)
    ftl = FTLConfig(overprovision=0.25, buffer_opages=8)
    chip_seed = _seed(seed, "wearout-chip")

    def chip() -> FlashChip:       # same variation draw for all three
        return FlashChip(geometry, rber_model=model, policy=policy,
                         seed=chip_seed, variation_sigma=0.3)

    salamander = dict(msize_lbas=32, headroom_fraction=0.25, ftl=ftl)
    return {
        "devices": {
            "baseline": BaselineSSD(chip(), SSDConfig(ftl=ftl)),
            "shrink": SalamanderSSD(chip(), SalamanderConfig(
                mode="shrink", **salamander)),
            "regen": SalamanderSSD(chip(), SalamanderConfig(
                mode="regen", **salamander)),
        },
        "seed": _seed(seed, "wearout-writes"),
    }


def _wearout_run(fixture: dict) -> dict:
    results = {}
    for name, device in fixture["devices"].items():
        start = time.perf_counter()
        result = lifetime.run_write_lifetime(
            device, utilization=0.6, capacity_floor_fraction=0.3,
            seed=fixture["seed"])
        results[name] = (result, time.perf_counter() - start)
    return results


def _wearout_check(fixture: dict, raw: dict) -> Outcome:
    devices = list(fixture["devices"].values())
    problems = _waf_problems(devices)
    for name, (result, _wall) in raw.items():
        if result.death_cause not in _DEATHS[name]:
            problems.append(
                f"{name} died of {result.death_cause}, expected one of "
                f"{_DEATHS[name]}")
    writes = {name: result.host_writes for name, (result, _) in raw.items()}
    if not writes["baseline"] < writes["shrink"] < writes["regen"]:
        problems.append(f"lifetimes not baseline < shrink < regen: {writes}")
    return Outcome(
        ops=sum(writes.values()), failed=0, problems=problems,
        sim={"sim_waf": _waf(devices),
             "sim_lifetime_gain": writes["regen"] / writes["baseline"]},
        stats={name: {"host_writes": result.host_writes,
                      "death_cause": result.death_cause,
                      "capacity_curve": result.capacity_curve,
                      "mean_pec_at_death": result.mean_pec_at_death,
                      "stats": result.stats}
               for name, (result, _) in raw.items()},
        counts=_device_counts(devices),
        parts={name: {"ops": result.host_writes, "wall_s": wall}
               for name, (result, wall) in raw.items()})


# -- cluster_churn ------------------------------------------------------------

def _churn_setup(seed: int, quick: bool) -> dict:
    size = (dict(blocks=16, chunks=60, stop_failures=2) if quick else
            dict(blocks=64, chunks=400, stop_failures=8))
    geometry = FlashGeometry(blocks=size["blocks"], fpages_per_block=32)
    policy = TirednessPolicy(geometry=geometry)
    # Accelerated wear: the first mDisks fail after ~2300 chunk
    # operations instead of after millions.
    model = calibrate_power_law(policy, pec_limit_l0=3)
    ftl = FTLConfig(overprovision=0.25, buffer_opages=8)
    cluster = Cluster(
        ClusterConfig(replication=3, chunk_lbas=16,
                      opage_bytes=geometry.opage_bytes),
        seed=_seed(seed, "churn-placement"))
    devices = []
    for node in range(6):
        cluster.add_node(f"n{node}")
        chip = FlashChip(geometry, rber_model=model, policy=policy,
                         seed=_seed(seed, "churn-chip", str(node)),
                         variation_sigma=0.3)
        devices.append(SalamanderSSD(chip, SalamanderConfig(
            mode="regen", msize_lbas=64, headroom_fraction=0.25, ftl=ftl)))
        cluster.add_device(f"n{node}", devices[-1])
    chunks = size["chunks"]
    for index in range(chunks):
        cluster.create_chunk(f"c{index}", bytes([index & 0xFF]) * 32)
    max_ops = 40 * chunks
    targets = make_rng(_seed(seed, "churn-ops")).integers(
        0, chunks, size=max_ops)
    return {"cluster": cluster, "devices": devices,
            "stop_failures": size["stop_failures"],
            # 3:1 update:read, in a fixed interleaving.
            "schedule": [(f"c{int(target)}", op % 4 != 3)
                         for op, target in enumerate(targets)]}


def _churn_run(fixture: dict) -> dict:
    cluster = fixture["cluster"]
    stats = cluster.recovery.stats
    stop = fixture["stop_failures"]
    ops = rejected = 0
    for chunk_id, is_update in fixture["schedule"]:
        if stats.volume_failures >= stop:
            break
        try:
            if is_update:
                cluster.update_chunk(chunk_id, bytes([ops & 0xFF]) * 32)
            else:
                cluster.read_chunk(chunk_id)
        except ReproError:
            rejected += 1
        ops += 1
        cluster.poll_failures()
        cluster.run_recovery()
    return {"ops": ops, "rejected": rejected}


def _churn_check(fixture: dict, raw: dict) -> Outcome:
    cluster, devices = fixture["cluster"], fixture["devices"]
    stats = cluster.recovery.stats
    audit = cluster.audit()
    io = cluster.io_stats()
    problems = _waf_problems(devices)
    if stats.volume_failures < fixture["stop_failures"]:
        problems.append(
            f"only {stats.volume_failures} volume failures before the "
            f"op schedule ran out")
    if stats.chunks_lost:
        problems.append(f"{stats.chunks_lost} chunks lost")
    if audit["units_bad"] or audit["repairs_queued"]:
        problems.append(f"audit not clean: {audit}")
    if audit["chunks_checked"] != len(cluster.namespace):
        problems.append("audit did not cover the namespace")
    counts = _device_counts(devices)
    counts.update({
        "io.queue.dispatched": io["dispatched"],
        "io.queue.errors": io["errors"],
        "difs.recovery.volume_failures": stats.volume_failures,
        "difs.recovery.chunks_recovered": stats.chunks_recovered,
        "difs.recovery.bytes_moved": stats.bytes_moved,
        "difs.cluster.rejected_ops": raw["rejected"],
    })
    return Outcome(
        ops=raw["ops"],
        # A queue error here is a write that raced a decommission and
        # was re-placed by the cluster: absorbed, not a failed chunk op.
        failed=raw["rejected"] + stats.chunks_lost,
        problems=problems,
        sim={"sim_waf": _waf(devices),
             "sim_recovery_bytes": stats.bytes_moved},
        stats={"ops": raw["ops"], "audit": audit, "io": io,
               "report": cluster.report(),
               "recovery": {
                   "volume_failures": stats.volume_failures,
                   "chunks_recovered": stats.chunks_recovered,
                   "chunks_lost": stats.chunks_lost,
                   "bytes_read": stats.bytes_read,
                   "bytes_written": stats.bytes_written,
                   "events": [[e.time, e.volume_id, e.chunks_recovered,
                               e.chunks_lost, e.bytes_moved]
                              for e in stats.events]},
               "devices": _device_reports(devices)},
        counts=counts, parts={})


# -- fleet_grid ---------------------------------------------------------------

_FLEET_MODES = ("baseline", "shrink", "regen")
_FLEET_SHARDS = 8


def _fleet_setup(seed: int, quick: bool) -> dict:
    config = fleet.FleetConfig(devices=32 if quick else 256,
                         horizon_days=365 * 7,
                         step_days=20 if quick else 5)
    return {"config": config, "seed": _seed(seed, "fleet")}


def _fleet_run(fixture: dict) -> dict:
    config, seed = fixture["config"], fixture["seed"]
    results = {}
    for mode in _FLEET_MODES:
        start = time.perf_counter()
        result = fleet.simulate_fleet(config, mode, seed=seed)
        results[mode] = (result, time.perf_counter() - start)
    start = time.perf_counter()
    result = shard.simulate_fleet_sharded(config, "regen", seed=seed,
                                    shards=_FLEET_SHARDS, jobs=1)
    results["regen_sharded"] = (result, time.perf_counter() - start)
    return results


def _fleet_check(fixture: dict, raw: dict) -> Outcome:
    config = fixture["config"]
    device_steps = config.devices * (config.horizon_days // config.step_days)
    days = {name: result.mean_lifetime_days()
            for name, (result, _) in raw.items()}
    problems = []
    if not days["baseline"] < days["shrink"] < days["regen"]:
        problems.append(f"lifetimes not baseline < shrink < regen: {days}")
    serial, sharded = raw["regen"][0], raw["regen_sharded"][0]
    # Sharding changes only the float merge order of the capacity sums.
    if not (np.array_equal(serial.death_day, sharded.death_day)
            and np.array_equal(serial.functioning, sharded.functioning)):
        problems.append("sharded regen fleet diverged from the serial walk")
    return Outcome(
        ops=device_steps * len(raw), failed=0, problems=problems,
        sim={"sim_lifetime_gain": days["regen"] / days["baseline"]},
        stats={name: {"functioning": result.functioning.tolist(),
                      "capacity_bytes": result.capacity_bytes.tolist(),
                      "capacity_lost_bytes":
                          result.capacity_lost_bytes.tolist(),
                      "death_day": result.death_day.tolist()}
               for name, (result, _) in raw.items()},
        counts={"sim.fleet.device_steps": device_steps * len(raw)},
        parts={name: {"ops": device_steps, "wall_s": wall}
               for name, (_, wall) in raw.items()})


def _fleet_extras(fixture: dict) -> dict[str, float]:
    """The one multi-process measurement, informational: the same
    sharded walk on one worker and on two."""
    walls = []
    for jobs in (1, 2):
        start = time.perf_counter()
        shard.simulate_fleet_sharded(
            fixture["config"], "regen", seed=fixture["seed"],
            shards=_FLEET_SHARDS, jobs=jobs)
        walls.append(time.perf_counter() - start)
    return {"sim.shard.jobs2_speedup": walls[0] / walls[1]}


WORKLOADS = {
    # One 192-LBA mDisk per tenant, so the 32 tenants of a cell fill
    # 75 % of its 64x32 device and GC runs throughout the window
    # (the default 32-LBA mDisks leave it 12 % full: no GC at all).
    # pec_limit high enough that no mDisk is decommissioned in the
    # window: a decommission makes tenant requests error by design.
    "traffic_mixed": _traffic("traffic_mixed", 0.0, mode="regen",
                              read_fraction=0.5, msize_lbas=192,
                              pec_limit=100_000.0),
    # fill_fraction sizes only flat devices; 0.5 keeps GC out of the way.
    "traffic_scan": _traffic("traffic_scan", 0.9, mode="flat", level=2,
                             read_span=4, read_fraction=0.95,
                             mixed_read_fraction=0.95, fill_fraction=0.5),
    "device_wearout": Workload(_wearout_setup, _wearout_run, _wearout_check),
    "cluster_churn": Workload(_churn_setup, _churn_run, _churn_check),
    "fleet_grid": Workload(_fleet_setup, _fleet_run, _fleet_check,
                           _fleet_extras),
}

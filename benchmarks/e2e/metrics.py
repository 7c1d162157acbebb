"""The benchmark's contract as data: layers, workloads, metrics, bounds.

Imports nothing from ``repro`` so ``compare`` and the manifest check run
without the simulator. ``manifest()`` is the content of the root
``BENCHMARK.json``; the smoke test keeps the two equal.
"""

from __future__ import annotations

from typing import NamedTuple

SCHEMA = "repro.bench_e2e/v1"

#: Seed of the committed reference document. ``reference/`` also holds
#: a document for seed 77003, held back from every sizing decision.
DEFAULT_SEED = 20250

#: Seconds of timed region per workload (``run_seconds`` in the manifest).
RUN_SECONDS = 8

#: Module names under ``src/repro/`` — one ledger row each.
LAYERS = (
    "workloads.arrivals", "workloads.generators", "workloads.engine",
    "io.probe", "io.queue", "salamander.device", "ssd.ftl", "flash.chip",
    "difs.cluster", "difs.volume", "difs.placement", "difs.recovery",
    "sim.lifetime", "sim.fleet", "sim.shard",
)

#: name -> (why it exists, what one operation is).
WORKLOADS = {
    "traffic_mixed": (
        "tenants -> engine -> DeviceQueue -> RegenS/FTL -> chip at 75% "
        "fill with steady GC and no decommission; the engine-bound path",
        "queue-dispatched request"),
    "traffic_scan": (
        "same engine and queue but >=90% read_span=4 reads on a flat "
        "level-2 device: read kernels, not buffer/flush/GC; a write-path "
        "gain that costs reads shows here",
        "queue-dispatched request"),
    "device_wearout": (
        "baseline, ShrinkS and RegenS devices written to death with no "
        "engine and no queue: FTL map/GC, chip program/erase and the "
        "Salamander state machine do all the work",
        "host oPage write"),
    "cluster_churn": (
        "6-node diFS over ~580 RegenS minidisk volumes, 3:1 update:read "
        "with recovery every round until volumes fail: placement and "
        "recovery dominate, the IO stack is a minority",
        "chunk operation"),
    "fleet_grid": (
        "analytic fleet model over baseline/shrink/regen plus the sharded "
        "walk: touches no IO layer, so every IO-path change predicts no "
        "movement here",
        "device-step"),
}

#: The layer expected to hold the largest self share of each workload,
#: written down (with the interaction table in README.md) before the
#: first traced run; a run prints the measured one next to it.
PREDICTED_DOMINANT = {
    "traffic_mixed": "workloads.engine",
    "traffic_scan": "workloads.engine",
    "device_wearout": "ssd.ftl",
    "cluster_churn": "difs.placement",
    "fleet_grid": "sim.fleet",
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the base median by which the metric may worsen; None
    #: for per-layer metrics, which have no bound.
    bound: float | None = None


#: Host-time metrics every workload reports (``end_to_end`` in the
#: manifest). Both times are in *reference seconds*: wall seconds scaled
#: to the machine's nominal speed by the yardstick in run.py, because
#: the sizing box slows by up to 1.5x for seconds to minutes at a time.
#: ``setup_s`` takes the largest bound the contract allows (interpreter
#: start and imports are the noisiest part), and so does
#: ``host_ops_per_s``: see "How steady it is" in README.md.
HOST = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("host_ops_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
)

#: Simulated metrics: exact for a fixed seed, reported only by the
#: workloads they make sense on (absent elsewhere in a document, 0 in
#: the per-layer output the driver reads).
SIM = (
    Metric("sim_p99_latency_us", "us", "lower", 0.05),
    Metric("sim_waf", "ratio", "lower", 0.05),
    Metric("sim_lifetime_gain", "ratio", "higher", 0.05),
    Metric("sim_recovery_bytes", "B", "lower", 0.05),
)

FAILED = Metric("failed_op_share", "ratio", "lower", 0.0)

#: The eight end-to-end metrics of a document, in print order.
END_TO_END = HOST + (FAILED,) + SIM

#: Work and waste counts taken at the layer boundaries.
COUNTS = (
    Metric("workloads.engine.deferrals", "count", "lower"),
    Metric("workloads.engine.deferrals_per_admitted", "ratio", "lower"),
    Metric("workloads.arrivals.draws", "count", "lower"),
    Metric("io.queue.dispatched", "count", "higher"),
    Metric("io.queue.errors", "count", "lower"),
    Metric("io.queue.members_per_call", "ratio", "higher"),
    Metric("ssd.ftl.host_writes", "count", "higher"),
    Metric("ssd.ftl.gc_relocations", "count", "lower"),
    Metric("ssd.ftl.gc_relocations_per_host_write", "ratio", "lower"),
    Metric("flash.chip.programs", "count", "lower"),
    Metric("flash.chip.reads", "count", "lower"),
    Metric("flash.chip.erases", "count", "lower"),
    Metric("flash.chip.level_ups", "count", "lower"),
    Metric("salamander.device.decommissions", "count", "lower"),
    Metric("salamander.device.regenerations", "count", "higher"),
    Metric("difs.placement.candidates_per_call", "ratio", "lower"),
    Metric("difs.recovery.volume_failures", "count", "lower"),
    Metric("difs.recovery.chunks_recovered", "count", "higher"),
    Metric("difs.recovery.bytes_moved", "B", "lower"),
    Metric("difs.cluster.rejected_ops", "count", "lower"),
    Metric("sim.fleet.device_steps", "count", "higher"),
    Metric("sim.shard.over_serial_ratio", "ratio", "lower"),
    Metric("sim.shard.jobs2_speedup", "ratio", "higher"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
    Metric("trace.unattributed_share", "ratio", "lower"),
)

#: The ledger: three columns per layer.
LEDGER = tuple(
    metric for layer in LAYERS for metric in (
        Metric(f"{layer}.calls", "count", "lower"),
        Metric(f"{layer}.self_s", "s", "lower"),
        Metric(f"{layer}.self_share", "ratio", "lower")))

#: Everything a traced run reports: the ledger, the counts, and the
#: simulated metrics (without their document bounds).
PER_LAYER = LEDGER + COUNTS + tuple(m._replace(bound=None) for m in SIM)


def manifest() -> dict:
    """The root ``BENCHMARK.json``."""
    def row(metric: Metric) -> dict:
        out = {"name": metric.name, "unit": metric.unit,
               "better": metric.better}
        if metric.bound is not None:
            out["bound"] = metric.bound
        return out

    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, (why, _op) in WORKLOADS.items()],
        "end_to_end": [row(metric) for metric in HOST],
        "per_layer": [row(metric) for metric in PER_LAYER],
    }

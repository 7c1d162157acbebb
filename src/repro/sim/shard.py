"""Sharded, process-parallel fleet runner.

:func:`repro.sim.parallel` parallelises *across* runs (one task per
(config, mode, seed)); this module parallelises *inside* one run by
partitioning the device population into contiguous **failure-domain
shards** and walking each shard in its own worker process. It owns the
layout, the fork pool and the ``repro_shard_*`` instruments and nothing
else: the step loop is :func:`repro.sim.fleet.walk_shard` and the merge
is :func:`repro.sim.fleet.assemble_fleet`, the same two functions
:func:`~repro.sim.fleet.simulate_fleet` runs on the one-shard layout.

* the shard layout is a pure function of ``(devices, shards)`` —
  contiguous balanced slices, enumerated in one canonical order;
* every walk reads its rows of the one whole-fleet hardware table (the
  coordinator draws it before the pool forks: workers inherit it and
  never draw) and replays the *full* AFR and load-factor streams,
  *slicing* its own range out of them, so the streams a device sees are
  independent of the shard layout and worker count;
* the coordinator assembles shard steps in canonical shard-major order
  and drives telemetry (metrics, timeseries, tracing) itself; workers
  never export telemetry.

Determinism contract (docs/SHARDING.md): artifacts are byte-identical
across ``--jobs`` for a *fixed* shard count, and ``shards=1`` is the
``simulate_fleet`` layout. Different shard counts give float-level
(``allclose``) agreement only, because per-step capacity sums are
ordered shard-partial sums — which is why ``shards`` lives in
:class:`~repro.sim.fleet.FleetConfig` (and thus in the artifact) while
``jobs`` does not.

Injected faults (``fleet.step`` device losses) couple shards globally
("kill the first N alive devices in index order"), so a run with an
active fault plan is walked as one shard, with a warning when more
were asked for.
"""

from __future__ import annotations

import time as _time
import warnings

import numpy as np

from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultPlan
from repro.obs.instruments import shard_instruments
from repro.rng import DEFAULT_SEED, make_rng
from repro.sim.fleet import (
    FleetConfig,
    FleetResult,
    FleetRules,
    ShardStep,
    ShardTask,
    assemble_fleet,
    fleet_hardware,
    resolve_injector,
    sample_schedule,
    walk_shard,
)
from repro.sim.parallel import parallel_map


def partition_devices(devices: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous balanced shard layout: ``[start, stop)`` per shard.

    The first ``devices % shards`` shards take one extra device. When
    ``shards > devices`` the tail shards are empty ``(k, k)`` ranges —
    legal by construction (an empty shard contributes zeros to every
    merge), so callers never need to special-case small fleets.
    Contiguity is what makes the shard-major merge *order-preserving*:
    walking shards in order visits devices in index order.
    """
    if devices < 0:
        raise ConfigError(f"devices must be non-negative, got {devices!r}")
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards!r}")
    base, extra = divmod(devices, shards)
    layout: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        layout.append((start, start + size))
        start += size
    return layout


def run_shard_task(task: ShardTask) -> list[ShardStep]:
    """Pool worker entry point: walk one device range to the horizon.

    The walk reads nothing from the run context (the coordinator
    assembles results; workers start from a reset one and never export
    telemetry), so an in-process call leaves the caller's state alone.
    """
    return list(walk_shard(task))


def simulate_fleet_sharded(config: FleetConfig, mode: str,
                           seed: int | None = None,
                           faults: FaultPlan | FaultInjector | None = None,
                           shards: int | None = None,
                           jobs: int = 1) -> FleetResult:
    """Run one fleet sharded across ``jobs`` worker processes.

    Drop-in for :func:`~repro.sim.fleet.simulate_fleet` under the
    determinism contract above: ``shards=1`` (for any ``jobs``) is the
    same walk and the same result; a fixed ``shards`` is bit-identical
    across ``jobs``. ``shards`` defaults to ``config.shards``. ``seed``
    must be an int (or None for the default) — a live ``Generator``
    cannot be replayed inside workers.

    An active fault plan (the ``faults`` argument or the run context's
    injector) forces the one-shard layout, walked in this
    process: injected ``fleet.step`` device losses pick victims across
    the whole fleet in index order, a coupling no shard can resolve
    locally. Asking for more shards than that raises a
    :class:`RuntimeWarning`.
    """
    rules = FleetRules(config, mode)
    shards = config.shards if shards is None else shards
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards!r}")
    if isinstance(seed, np.random.Generator):
        raise ConfigError(
            "simulate_fleet_sharded needs an int seed (workers replay "
            "the RNG walk from it); pass the seed, not a Generator")
    seed = DEFAULT_SEED if seed is None else int(seed)
    injector = resolve_injector(faults)
    if injector is not None and shards > 1:
        warnings.warn(
            "an active fault plan couples shards globally; falling "
            "back to the serial fleet path (results are identical)",
            RuntimeWarning, stacklevel=2)
        shards = 1
    shard_instr = shard_instruments()

    pending = sample_schedule(rules)
    layout = partition_devices(config.devices, shards)
    tasks = [ShardTask(config, mode, seed, start, stop, pending)
             for start, stop in layout]
    live = len(tasks) == 1
    if live:
        # One range is stepped live by the assembler — the
        # ``simulate_fleet`` layout — so an injector's counters advance
        # between samples.
        walks = [walk_shard(tasks[0], rules, injector)]
    else:
        # Before the fork, so every range finds the tables held.
        fleet_hardware(config, seed, make_rng(seed))
        walks = parallel_map(run_shard_task, tasks, jobs=jobs)
    assemble_start = _time.perf_counter()
    result, walk_seconds = assemble_fleet(rules, walks)
    if shard_instr is not None:
        assemble_wall = _time.perf_counter() - assemble_start
        if live:
            assemble_wall -= walk_seconds[0]  # the walk ran inside it
        shard_instr.merge_duration.observe(assemble_wall)
        for shard_index, (start, stop) in enumerate(layout):
            label = str(shard_index)
            shard_instr.tick_duration.labels(shard=label).observe(
                walk_seconds[shard_index])
            shard_instr.shard_devices.labels(shard=label).set(stop - start)
    return result


__all__ = [
    "partition_devices",
    "run_shard_task",
    "simulate_fleet_sharded",
]

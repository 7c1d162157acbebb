"""Deterministic process-parallel sweep runner.

Fleet sweeps (many seeds x four disciplines) are embarrassingly parallel:
every (config, mode, seed) task is a pure function of its inputs. This
module fans such tasks out over worker processes while guaranteeing that
the merged results are **bit-identical** to a sequential run:

* seeds are derived *in the parent, before dispatch*, by a sequential
  :func:`repro.rng.fork_rng` walk — worker count can never perturb them;
* tasks are enumerated in one canonical order (seed-major, then mode) and
  ``Pool.map`` preserves that order in its result list;
* each worker starts from a reset run context (:func:`repro.context.reset`
  is the pool initializer; the serial path scopes the same defaults) and
  runs :func:`repro.sim.shard.simulate_fleet_sharded` (one worker, so
  ``config.shards`` is honoured and nothing nests a pool) from the
  task's own integer seed, so results depend only on the task tuple,
  not on which process ran it.

A ``fleet`` scenario with ``"runs"`` (:mod:`repro.scenarios`) is the
CLI's door to a sweep; its artifact is byte-identical for any ``--jobs``.

The runner prefers the ``fork`` start method (cheap on Linux, no
re-import) and falls back to the platform default elsewhere.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, Sequence, TypeVar

from repro import context
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.rng import fork_rng, make_rng
from repro.sim.fleet import MODES, FleetConfig, FleetResult

_T = TypeVar("_T")
_R = TypeVar("_R")


def derive_seeds(root_seed: int, count: int) -> list[int]:
    """``count`` independent child seeds from one root, jobs-invariant.

    The derivation is a sequential fork walk in the calling process: the
    i-th seed is a deterministic function of ``root_seed`` and ``i`` only.
    Parallel runners must call this *before* dispatching work so the seed
    schedule cannot depend on worker count or scheduling.
    """
    if count <= 0:
        raise ConfigError(f"count must be positive, got {count!r}")
    rng = make_rng(root_seed)
    return [int(fork_rng(rng, i).integers(0, 2**31)) for i in range(count)]


def resolve_jobs(jobs: int) -> int:
    """Normalise a ``--jobs`` value to a worker count.

    ``0`` means "all cores"; anything else must be a positive int.
    """
    if not isinstance(jobs, int) or isinstance(jobs, bool):
        raise ConfigError(f"jobs must be an int, got {jobs!r}")
    if jobs < 0:
        raise ConfigError(f"jobs must be non-negative, got {jobs!r}")
    if jobs == 0:
        return max(1, os.cpu_count() or 1)
    return jobs


def _fork_context():
    """The ``fork`` multiprocessing context, or None when unavailable.

    A seam for tests (and exotic platforms): :func:`parallel_map`
    treats None as "no safe process parallelism here" and degrades to
    the serial path rather than silently switching to ``spawn``, whose
    re-import semantics break the fork-pool discipline (workers must
    inherit the parent's module state, not rebuild it).
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def parallel_map(fn: Callable[[_T], _R], tasks: Sequence[_T],
                 jobs: int = 1) -> list[_R]:
    """Order-preserving map over ``tasks`` with ``jobs`` processes.

    ``jobs <= 1`` runs sequentially in-process (no pool, no pickling) —
    the reference execution the parallel path must match. ``fn`` and every
    task must be picklable module-level objects when ``jobs > 1``.

    Every task runs under the default run context — a pool worker
    from :func:`repro.context.reset`, the serial path under the same
    defaults scoped around it: nothing the caller scoped (a registry,
    tracer, sampler, injector, request tracer or wear ledger) reaches a
    task, so what the caller exports never depends on ``jobs``. Tasks
    never export telemetry — the caller merges results, not telemetry.

    On platforms without the ``fork`` start method the call falls back
    to the serial path with a :class:`RuntimeWarning` — results are
    identical by the determinism contract, only slower.
    """
    jobs = resolve_jobs(jobs)
    parallel = jobs > 1 and len(tasks) > 1
    fork = _fork_context() if parallel else None
    if fork is None:
        if parallel:
            warnings.warn(
                "the 'fork' start method is unavailable on this platform; "
                f"running {len(tasks)} task(s) serially instead of on "
                f"{jobs} workers (results are identical)",
                RuntimeWarning, stacklevel=2)
        with context.scoped(**asdict(context.RunContext())):
            return [fn(task) for task in tasks]
    # Chunked fan-out: a few chunks per worker balances load without
    # drowning in per-task IPC.
    chunk_size = max(1, math.ceil(len(tasks) / (jobs * 4)))
    with fork.Pool(processes=min(jobs, len(tasks)),
                   initializer=context.reset) as pool:
        return pool.map(fn, tasks, chunksize=chunk_size)


@dataclass(frozen=True)
class FleetTask:
    """One (config, mode, seed) fleet simulation, picklable for dispatch.

    ``faults`` rides along as a *plan* (a pure value), never a live
    injector: each worker builds a fresh injector from it, so fault
    trigger counters are per-run and the merged sweep stays byte-identical
    for any ``--jobs`` value.
    """

    config: FleetConfig
    mode: str
    seed: int
    faults: FaultPlan | None = None


def run_fleet_task(task: FleetTask) -> FleetResult:
    """Worker entry point: simulate one fleet task, its shards walked in
    this process."""
    from repro.sim.shard import simulate_fleet_sharded  # imports this module

    return simulate_fleet_sharded(task.config, task.mode, seed=task.seed,
                                  faults=task.faults, jobs=1)


def fleet_tasks(config: FleetConfig, modes: Sequence[str],
                seeds: Sequence[int],
                faults: FaultPlan | None = None) -> list[FleetTask]:
    """Canonical task enumeration: seed-major, then mode order."""
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    return [FleetTask(config=config, mode=mode, seed=int(seed),
                      faults=faults)
            for seed in seeds for mode in modes]


def run_fleet_grid(config: FleetConfig, modes: Sequence[str] = MODES,
                   seeds: Sequence[int] = (2025,), jobs: int = 1,
                   faults: FaultPlan | None = None,
                   ) -> dict[tuple[str, int], FleetResult]:
    """Simulate every (mode, seed) combination, optionally in parallel.

    Returns ``{(mode, seed): FleetResult}``. The result for any key is
    identical whatever ``jobs`` is — the ``runs`` scenario artifact and
    the determinism test both rely on this. The same ``faults`` plan applies
    to every task (each gets its own injector).
    """
    tasks = fleet_tasks(config, modes, seeds, faults=faults)
    results = parallel_map(run_fleet_task, tasks, jobs=jobs)
    return {(task.mode, task.seed): result
            for task, result in zip(tasks, results)}

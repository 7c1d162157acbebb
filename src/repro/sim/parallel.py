"""Deterministic process-parallel sweep runner.

Fleet sweeps (many seeds x four disciplines) are embarrassingly parallel:
every (config, mode, seed) task is a pure function of its inputs. This
module fans such tasks out over worker processes while guaranteeing that
the merged output is **bit-identical** to a sequential run:

* seeds are derived *in the parent, before dispatch*, by a sequential
  :func:`repro.rng.fork_rng` walk — worker count can never perturb them;
* tasks are enumerated in one canonical order (seed-major, then mode) and
  ``Pool.map`` preserves that order in its result list;
* each worker starts from a reset run context (:func:`repro.context.reset`
  is the pool initializer) and runs :func:`repro.sim.fleet.simulate_fleet`
  from the task's own integer seed, so results depend only on the task
  tuple, not on which process ran it;
* artifacts are serialised with sorted keys and a fixed layout, so the
  files produced by ``--jobs 1`` and ``--jobs N`` compare equal as bytes
  (the sweep determinism test diffs them).

The runner prefers the ``fork`` start method (cheap on Linux, no
re-import) and falls back to the platform default elsewhere.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro import artifact, context
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.rng import fork_rng, make_rng
from repro.sim.fleet import MODES, FleetConfig, FleetResult, simulate_fleet

SWEEP_SCHEMA = "repro.sweep/v1"

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


def resolve_jobs(jobs: int | str) -> int:
    """Normalise a ``--jobs`` value to a worker count.

    ``0`` means "all cores"; the string ``"auto"`` means "all cores
    but one" (floor 1) — leave a core for the coordinator and the rest
    of the machine. Anything else must be a positive int.
    """
    if jobs == "auto":
        return max(1, (os.cpu_count() or 1) - 1)
    if not isinstance(jobs, int) or isinstance(jobs, bool):
        raise ConfigError(
            f"jobs must be an int or 'auto', got {jobs!r}")
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

    Every pool worker starts from a reset run context: nothing the
    parent scoped (a registry, tracer, sampler, injector, request
    tracer or wear ledger) leaks into a child, and workers never export
    telemetry — the parent merges results, not telemetry.

    On platforms without the ``fork`` start method the call falls back
    to the serial path with a :class:`RuntimeWarning` — results are
    identical by the determinism contract, only slower.
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    fork = _fork_context()
    if fork is None:
        warnings.warn(
            "the 'fork' start method is unavailable on this platform; "
            f"running {len(tasks)} task(s) serially instead of on "
            f"{jobs} workers (results are identical)",
            RuntimeWarning, stacklevel=2)
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
    """Worker entry point: simulate one fleet task.

    Called in-process (``jobs <= 1``) it runs under the caller's run
    context — telemetry never changes simulation results, so both paths
    produce identical :class:`FleetResult` values.
    """
    return simulate_fleet(task.config, task.mode, seed=task.seed,
                          faults=task.faults)


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
    identical whatever ``jobs`` is — the sweep artifact and the
    determinism test both rely on this. The same ``faults`` plan applies
    to every task (each gets its own injector).
    """
    tasks = fleet_tasks(config, modes, seeds, faults=faults)
    results = parallel_map(run_fleet_task, tasks, jobs=jobs)
    return {(task.mode, task.seed): result
            for task, result in zip(tasks, results)}


def _jsonable(value):
    """Recursively convert numpy scalars/arrays; infinities become None."""
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float):
        if math.isnan(value):
            raise ConfigError("sweep results must not contain NaN")
        return None if math.isinf(value) else value
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _result_record(task: FleetTask, result: FleetResult) -> dict:
    """JSON-safe record for one task. ``death_day`` None means survived."""
    return {
        "mode": task.mode,
        "seed": task.seed,
        "days": _jsonable(result.days),
        "functioning": _jsonable(result.functioning),
        "capacity_bytes": _jsonable(result.capacity_bytes),
        "capacity_lost_bytes": _jsonable(result.capacity_lost_bytes),
        "death_day": _jsonable(result.death_day),
        "initial_capacity_bytes": _jsonable(result.initial_capacity_bytes),
        "mean_lifetime_days": _jsonable(result.mean_lifetime_days()),
        "total_recovery_bytes": _jsonable(result.total_recovery_bytes()),
    }


def sweep_document(config: FleetConfig, modes: Sequence[str],
                   seeds: Sequence[int],
                   results: dict[tuple[str, int], FleetResult],
                   faults: FaultPlan | None = None) -> dict:
    """Assemble the ``repro.sweep/v1`` artifact document.

    Deliberately excludes anything execution-dependent (job count,
    timestamps, host names): two runs of the same sweep must produce the
    same document. When the sweep ran under a fault plan the plan document
    is embedded verbatim (fault-free sweeps keep the historical layout).
    """
    records = [_result_record(FleetTask(config, mode, int(seed)),
                              results[(mode, int(seed))])
               for seed in seeds for mode in modes]
    document = {
        "schema": SWEEP_SCHEMA,
        "kind": "fleet_sweep",
        "config": _jsonable(asdict(config)),
        "modes": list(modes),
        "seeds": [int(seed) for seed in seeds],
        "results": records,
    }
    if faults is not None:
        document["faults"] = faults.to_dict()
    return document


def write_sweep_artifact(document: dict, path: str | Path) -> Path:
    """Write a sweep document as canonical JSON (byte-stable).

    ``sort_keys`` plus fixed indentation plus ``allow_nan=False`` (the
    document already maps infinities to None) makes the bytes a pure
    function of the document contents.
    """
    artifact.require(document, "sweep document", schema=SWEEP_SCHEMA)
    return artifact.write_text(path, artifact.dumps(document) + "\n")


def load_sweep_artifact(path: str | Path) -> dict:
    """Read and validate a ``repro.sweep/v1`` artifact."""
    document = artifact.read_json(path, "sweep artifact")
    validate_sweep_document(document)
    return document


_DOCUMENT_FIELDS = {"config": dict, "modes": list, "seeds": list,
                    "results": list}
_RESULT_FIELDS = {"mode": str, "seed": int, "days": list,
                  "functioning": list, "capacity_bytes": list,
                  "mean_lifetime_days": (float, type(None))}


def validate_sweep_document(document: dict) -> None:
    """Schema check for ``repro.sweep/v1`` documents."""
    artifact.require(document, "sweep document", _DOCUMENT_FIELDS,
                     schema=SWEEP_SCHEMA)
    expected = len(document["modes"]) * len(document["seeds"])
    if len(document["results"]) != expected:
        raise ConfigError(
            f"sweep document has {len(document['results'])} results; "
            f"modes x seeds = {expected}")
    for record in document["results"]:
        artifact.require(record, "sweep result", _RESULT_FIELDS)


def summarize_sweep(document: dict) -> list[dict]:
    """Per-mode aggregate rows (mean over seeds) for table rendering."""
    by_mode: dict[str, list[dict]] = {}
    for record in document["results"]:
        by_mode.setdefault(record["mode"], []).append(record)
    rows = []
    for mode in document["modes"]:
        records = by_mode.get(mode, [])
        if not records:
            continue
        lifetimes = [r["mean_lifetime_days"] for r in records]
        recovery = [r.get("total_recovery_bytes", 0.0) for r in records]
        survivors = [r["functioning"][-1] if r["functioning"] else 0
                     for r in records]
        rows.append({
            "mode": mode,
            "runs": len(records),
            "mean_lifetime_days": sum(lifetimes) / len(lifetimes),
            "mean_survivors_at_horizon": sum(survivors) / len(survivors),
            "mean_recovery_bytes": sum(recovery) / len(recovery),
        })
    return rows

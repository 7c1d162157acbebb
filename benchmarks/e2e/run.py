"""Entry point of the repo benchmark (see ``README.md`` beside this file).

Three ways in::

    run.py --workload W --seed N --seconds S --trace 0|1
        One workload, the form ``BENCHMARK.json`` names. Prints every
        metric by name and unit; the last line of stdout is the result
        object {"correct", "attempted", "failed", "metrics"} — the
        end-to-end metrics with --trace 0, the per-layer ones with 1.
    run.py [--seed N] [--seconds S] [--quick] [--out FILE]
        All five workloads, traced, as one document (``--out``).
    run.py compare A.json B.json
        Did document B get worse than A? (``compare.py``)

A run repeats the workload's timed region, one **fresh subprocess per
repeat** (in-process repeats grow the heap, which poisons
``peak_rss_mb`` and later timings), until ``--seconds`` of timed region
have been measured, and reports medians and quartiles over the repeats.
Host times are scaled to the machine's nominal speed by a yardstick loop
timed around every timed region (``_yardstick``), and repeats a burst
fell into are set aside (``_undisturbed``). Repeats are untraced;
``--trace 1`` adds one traced repeat that feeds only the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(ROOT), str(ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.e2e import compare, metrics  # noqa: E402

#: Fewest untraced repeats a run reports a median and quartiles over.
MIN_REPEATS = 3
#: A time this much longer than the run's shortest was disturbed.
DISTURBED = 1.15
#: Disturbed repeats a run replaces before it stops waiting for quiet.
MAX_SET_ASIDE = 2


# -- one repeat, in its own process ------------------------------------------

#: The yardstick: a fixed interpreter-bound loop timed in slices of this
#: many iterations, this many right before and right after each timed
#: region. NOMINAL is a slice on the quiet sizing box.
YARDSTICK_SLICE = 50_000
YARDSTICK_SLICES = 16
YARDSTICK_NOMINAL_S = 0.0088
#: How a slow spell that stretches the yardstick by f stretches the
#: timed regions (f ** RATE) and set-up (f ** SETUP): least-squares fits
#: over 120 repeats of four workloads spanning quiet and slow spells
#: (0.58-0.66 and 0.40-0.52; table in README.md).
RATE_EXPONENT = 0.62
SETUP_EXPONENT = 0.45


def _yardstick() -> list[float]:
    """Seconds per slice of the yardstick loop.

    After a few minutes of sustained load the sizing box starts to run
    in spells, seconds to minutes long, in which this loop takes 2x as
    long, the workloads 1.5x and set-up 1.35x (CPU time tracks wall, so
    it is not reported steal). Whole runs fall inside such spells, so no
    statistic over a run's repeats removes them: ten runs spread 16-25 %
    (interquartile range over median) and medians move 35 % between
    sets. The loop — dict and list traffic, integer and float
    arithmetic — is timed around every timed region so ``measure`` can
    scale host times to the machine's nominal speed.
    """
    slices = []
    for _ in range(YARDSTICK_SLICES):
        table: dict[int, list] = {}
        start = time.perf_counter()
        for i in range(YARDSTICK_SLICE):
            key = (i * 2654435761) & 0xFFF
            entry = table.get(key)
            if entry is None:
                table[key] = entry = [0, 0.0]
            entry[0] += 1
            entry[1] += i * 0.5
        slices.append(time.perf_counter() - start)
    return slices


def _unit(args: argparse.Namespace) -> None:
    """Set up, time and check one repeat; print it as one JSON line."""
    from repro import faults, obs
    from repro.obs import endurance, reqtrace

    from benchmarks.e2e.layers import Recorder
    from benchmarks.e2e.workloads import WORKLOADS

    if (obs.metrics_enabled() or obs.tracing_enabled()
            or obs.timeseries_enabled() or faults.enabled()
            or reqtrace.enabled() or endurance.enabled()):
        raise RuntimeError("repro instrumentation is installed; the "
                           "benchmark measures the bare program")
    workload = WORKLOADS[args.workload]
    fixture = workload.setup(args.seed, args.quick)
    recorder = None
    if args.trace:
        recorder = Recorder()
        recorder.install()
    setup_s = time.time() - args.spawned_at
    before = _yardstick()
    start = time.perf_counter()
    raw = workload.run(fixture)
    wall_s = time.perf_counter() - start
    after = _yardstick()
    if recorder is not None:
        recorder.uninstall()
    outcome = workload.check(fixture, raw)
    span_counts, times = {}, {}
    if recorder is not None:
        span_counts, times = recorder.ledger(
            wall_s, outcome.counts.get("io.queue.dispatched", 0))
        if workload.extras is not None:
            times.update(workload.extras(fixture))
    canonical = json.dumps(outcome.stats, sort_keys=True,
                           separators=(",", ":"),
                           default=lambda scalar: scalar.item())
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        # How much longer than nominal the yardstick took, around the
        # timed region and (set-up having just ended) before it.
        "stretch": statistics.median(before + after) / YARDSTICK_NOMINAL_S,
        "setup_stretch": statistics.median(before) / YARDSTICK_NOMINAL_S,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": outcome.ops,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "sim": outcome.sim,
        "sim_digest": hashlib.sha256(canonical.encode()).hexdigest(),
        "counts": outcome.counts,
        "span_counts": span_counts,     # exact too, but traced runs only
        "times": times,
        "parts": outcome.parts,
    }))


def _spawn_unit(workload: str, seed: int, quick: bool, trace: bool) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--unit",
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(trace)),
               "--spawned-at", repr(time.time())]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True)
    unit = json.loads(done.stdout.splitlines()[-1])
    # Host times in reference seconds: what they would have been with
    # the yardstick at its nominal speed.
    unit["ref_wall_s"] = unit["wall_s"] / unit["stretch"] ** RATE_EXPONENT
    unit["ref_setup_s"] = (unit["setup_s"]
                           / unit["setup_stretch"] ** SETUP_EXPONENT)
    return unit


# -- one workload: repeats -> medians ----------------------------------------

def _undisturbed(times: list[float]) -> list[int]:
    """Indexes of the times within DISTURBED of the shortest, shortest
    first — at least MIN_REPEATS of them, however slow those are.

    Every repeat of a run does identical work, so what spread is left
    between them after scaling by the yardstick is a burst that fell
    inside one repeat. Noise only ever adds time, so the repeats near
    the shortest are the ones to believe.
    """
    ranked = sorted(range(len(times)), key=times.__getitem__)
    limit = DISTURBED * times[ranked[0]]
    kept = sum(times[index] <= limit for index in ranked)
    return ranked[:max(kept, MIN_REPEATS)]


def _summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "values": values}


def _repeats(workload: str, seed: int, seconds: float,
             quick: bool) -> tuple[list[dict], list[dict]]:
    """Repeat until ``seconds`` of undisturbed timed region are in hand
    (or MAX_SET_ASIDE repeats have been replaced: the run must end).
    Returns every repeat spawned and the undisturbed ones.
    """
    spawned: list[dict] = []
    while True:
        spawned.append(_spawn_unit(workload, seed, quick, trace=False))
        if len(spawned) < MIN_REPEATS:
            continue
        kept = [spawned[index] for index in _undisturbed(
            [unit["ref_wall_s"] for unit in spawned])]
        if (sum(unit["wall_s"] for unit in kept) >= seconds
                or len(spawned) - len(kept) > MAX_SET_ASIDE):
            return spawned, kept


def measure(workload: str, seed: int, seconds: float, quick: bool,
            trace: bool) -> dict:
    """Run ``workload`` and reduce its repeats to one document section."""
    spawned, units = _repeats(workload, seed, seconds, quick)
    traced = _spawn_unit(workload, seed, quick, trace=True) if trace else None

    first = spawned[0]
    checked = spawned + ([traced] if trace else [])
    problems = [problem for unit in checked for problem in unit["problems"]]
    # A fixed seed fixes every simulated statistic and count: repeats
    # (and the traced run, which must not perturb the simulation) agree.
    for unit in checked[1:]:
        for key in ("ops", "failed", "sim", "sim_digest", "counts"):
            if unit[key] != first[key]:
                problems.append(f"{key} differs between repeats")

    # Set-up is a separate stretch of time from the timed region, so
    # it is disturbed separately.
    setups = [unit["ref_setup_s"] for unit in spawned]
    samples = {
        "setup_s": [setups[index] for index in _undisturbed(setups)],
        "host_ops_per_s": [unit["ops"] / unit["ref_wall_s"]
                           for unit in units],
        "peak_rss_mb": [unit["peak_rss_mb"] for unit in spawned],
    }
    end_to_end = {metric.name: _summary(samples[metric.name], metric.unit)
                  for metric in metrics.HOST}
    end_to_end[metrics.FAILED.name] = {
        "unit": metrics.FAILED.unit, "median": first["failed"] / first["ops"]}
    for metric in metrics.SIM:
        if metric.name in first["sim"]:
            end_to_end[metric.name] = {"unit": metric.unit,
                                       "median": first["sim"][metric.name]}
    section = {
        "why": metrics.WORKLOADS[workload][0],
        "op": metrics.WORKLOADS[workload][1],
        "repeats": len(units),
        "disturbed_repeats": len(spawned) - len(units),
        # As the wall clock had it, before scaling: informational.
        "unscaled": {
            "yardstick_stretch": statistics.median(
                unit["stretch"] for unit in units),
            "setup_s": statistics.median(
                unit["setup_s"] for unit in spawned),
            "host_ops_per_s": statistics.median(
                unit["ops"] / unit["wall_s"] for unit in units)},
        "attempted": sum(unit["ops"] for unit in spawned),
        "failed": sum(unit["failed"] for unit in spawned),
        "problems": sorted(set(problems)),
        "end_to_end": end_to_end,
        "sim_digest": first["sim_digest"],
        "counts": first["counts"],
        "parts": {
            name: {"ops": part["ops"], "host_ops_per_s": statistics.median(
                unit["parts"][name]["ops"] / unit["parts"][name]["wall_s"]
                * unit["stretch"] ** RATE_EXPONENT for unit in units)}
            for name, part in first["parts"].items()},
    }
    if traced is not None:
        untraced_wall = statistics.median(
            unit["ref_wall_s"] for unit in units)
        section["counts"] = {**first["counts"], **traced["span_counts"]}
        per_layer = {**section["counts"], **traced["times"], **first["sim"]}
        per_layer["trace.overhead_ratio"] = (
            traced["ref_wall_s"] / untraced_wall)
        parts = section["parts"]
        if "regen_sharded" in parts:
            per_layer["sim.shard.over_serial_ratio"] = (
                parts["regen"]["host_ops_per_s"]
                / parts["regen_sharded"]["host_ops_per_s"])
        section["per_layer"] = per_layer
        section["dominant_layer"] = max(
            metrics.LAYERS, key=lambda layer: per_layer[f"{layer}.self_share"])
    return section


# -- printing ----------------------------------------------------------------

def _print_section(name: str, section: dict) -> None:
    print(f"{name}: {section['repeats']} repeats "
          f"(+{section['disturbed_repeats']} disturbed, set aside), "
          f"op = {section['op']}, "
          f"{section['attempted']} attempted, {section['failed']} failed")
    for metric in metrics.END_TO_END:
        entry = section["end_to_end"].get(metric.name)
        if entry is None:
            continue
        spread = (f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}]"
                  if "q1" in entry else "")
        print(f"  {metric.name:<20} {entry['median']:>14.6g} "
              f"{metric.unit:<5}{spread}")
    unscaled = section["unscaled"]
    print(f"  (wall clock: yardstick x{unscaled['yardstick_stretch']:.2f}, "
          f"setup_s {unscaled['setup_s']:.4g}, "
          f"host_ops_per_s {unscaled['host_ops_per_s']:.6g})")
    for part, entry in section["parts"].items():
        print(f"    {part:<18} {entry['host_ops_per_s']:>14.6g} 1/s  "
              f"({entry['ops']} ops)")
    print(f"  sim_digest           {section['sim_digest']}")
    for problem in section["problems"]:
        print(f"  OUTPUT CHECK FAILED: {problem}")
    per_layer = section.get("per_layer")
    if per_layer is None:
        return
    print(f"  traced run: {per_layer['trace.spans']} spans, "
          f"trace.overhead_ratio {per_layer['trace.overhead_ratio']:.3f}, "
          f"trace.unattributed_share "
          f"{per_layer['trace.unattributed_share']:.4f}")
    print(f"  {'layer':<22} {'calls':>10} {'self_s':>10} {'self_share':>11}")
    for layer in metrics.LAYERS:
        if per_layer[f"{layer}.calls"]:
            print(f"  {layer:<22} {per_layer[f'{layer}.calls']:>10} "
                  f"{per_layer[f'{layer}.self_s']:>10.4f} "
                  f"{per_layer[f'{layer}.self_share']:>11.4f}")
    print(f"  dominant layer: {section['dominant_layer']} "
          f"(predicted {metrics.PREDICTED_DOMINANT[name]})")
    for metric in metrics.COUNTS:
        value = per_layer.get(metric.name, 0)
        if value:
            print(f"  {metric.name:<42} {value:>14.6g} {metric.unit}")


# -- command line ------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare.main(args.a, args.b)

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=metrics.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(metrics.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="tiny fixed sizes, for the smoke test")
    parser.add_argument("--out", help="write the document here")
    parser.add_argument("--unit", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.unit:
        _unit(args)
        return 0

    # Without --workload: every workload, traced unless told otherwise.
    names = [args.workload] if args.workload else list(metrics.WORKLOADS)
    trace = bool(args.trace) if args.trace is not None else not args.workload
    document = {"schema": metrics.SCHEMA, "seed": args.seed,
                "seconds": args.seconds, "quick": args.quick,
                "workloads": {}}
    for name in names:
        section = measure(name, args.seed, args.seconds, args.quick, trace)
        document["workloads"][name] = section
        _print_section(name, section)
    if args.out:
        Path(args.out).write_text(
            json.dumps(document, indent=1, sort_keys=True) + "\n")
    correct = not any(section["problems"] or section["failed"]
                      for section in document["workloads"].values())
    if args.workload:
        section = document["workloads"][args.workload]
        if trace:
            reported = {metric.name: {
                "value": section["per_layer"].get(metric.name, 0),
                "unit": metric.unit} for metric in metrics.PER_LAYER}
        else:
            reported = {metric.name: {
                "value": section["end_to_end"][metric.name]["median"],
                "unit": metric.unit} for metric in metrics.HOST}
        print(json.dumps({"correct": correct,
                          "attempted": section["attempted"],
                          "failed": section["failed"],
                          "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

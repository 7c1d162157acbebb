"""Alternating parent/change pairs of the repo benchmark, with a verdict.

    python -m benchmarks.perf.pairs --parent DIR --change DIR \\
        --workload W [--seed N] [--pairs 10] [--seconds 8] [--out FILE]
    python -m benchmarks.perf.pairs --parent DIR --change DIR \\
        --workload BENCH [--pairs 10] [--out FILE]

Every perf PR since the end-to-end benchmark landed measured its claim
with the same hand-rolled shell loop; this is that loop. Each pair runs
both trees' **own, unmodified** ``benchmarks/e2e/run.py --trace 0`` —
one from ``--parent``, one from ``--change``, each in its own directory
— and pairs alternate which side goes first, so a slow spell of the box
lands on both sides. Every run is printed as it finishes; then, per
end-to-end metric of ``BENCHMARK.json``, the two medians and quartiles,
the pairs the change won (ties count for neither side) and a verdict:

``improved``
    at least ten pairs were run, the change won at least nine tenths of
    them *and* the medians differ, in the better direction, by more than
    the distance between the parent's own quartiles (choosing-metrics
    §8: the only reading a gain may be claimed on);
``regressed``
    the change's median is worse than the parent's by more than the
    metric's ``bound`` in ``BENCHMARK.json``;
``unresolved``
    neither, and the run-to-run spread (interquartile range over median,
    the wider side's) exceeds the bound, so "no worse" cannot be told
    from these runs — unless every run of the change reads better than
    every run of the parent;
``within bound``
    neither, and the spread is narrower than the bound.

A run that exits non-zero, prints no result object, reports ``correct:
false`` or fails operations makes the whole comparison ``failed run``;
a ``sim_digest`` that differs between the sides is reported (a change
that claims bit-identity must print the parent's).

A ``--workload`` that ``BENCHMARK.json`` does not name is a perf bench
of ``benchmarks/perf/workloads.py`` (``fleet_step_micro``, ...): a run
is then one fresh process in the tree that times the bench's rounds as
``benchmarks.perf.harness.run`` does, records nothing, and reports the
best round's ``ops_per_s``, judged like ``host_ops_per_s`` (higher is
better, the same bound). The benches fix their own seeds and sizes, so
``--seed`` and ``--seconds`` do not apply.

The tool refuses to start if either tree holds ``.pyc`` files for
sources the other has but has not cached: a cached tree starts ~0.1 s
faster on untouched code, which reads as a ``setup_s`` change on every
workload (docs/PERFORMANCE.md, "Traps"). Runs are started with
``PYTHONDONTWRITEBYTECODE=1`` so that the trees stay as they were found.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: Pairs to run, and the share of them the change must win, before a
#: gain may be claimed (five of five is one chance in 32 per row).
MIN_PAIRS = 10
WIN_SHARE = 0.9


# -- the trees ---------------------------------------------------------------

def cached_sources(tree: Path) -> set[Path]:
    """Sources (relative to ``tree``) that have a ``.pyc`` beside them."""
    return {cache.parent.parent.relative_to(tree)
            / (cache.name.split(".", 1)[0] + ".py")
            for cache in tree.rglob("__pycache__/*.pyc")}


def bytecode_mismatch(parent: Path, change: Path) -> list[str]:
    """Sources both trees have but only one has compiled, as messages."""
    cached = {parent: cached_sources(parent), change: cached_sources(change)}
    problems = []
    for tree, other in ((parent, change), (change, parent)):
        for source in sorted(cached[tree] - cached[other]):
            if (other / source).is_file():
                problems.append(f"{tree / source} is cached, "
                                f"{other / source} is not")
    return problems


# -- one run -----------------------------------------------------------------

#: How a run finds a perf bench: the ``benchmarks/perf/workloads.py``
#: function named like the bench (its key in ``baseline.json``).
BENCH_LOOKUP = "getattr(workloads, sys.argv[1])"

#: One perf bench's reading in a fresh process, printed as ``run.py``
#: prints its result object: the best of the harness's rounds.
BENCH_RUN = """\
import json, sys
from benchmarks.perf import harness, workloads
bench = """ + BENCH_LOOKUP + """
runs = [bench() for _ in range(harness.rounds())]
best = max(run["ops"] / run["wall_s"] for run in runs)
print(json.dumps({"correct": True, "failed": 0, "metrics": {
    "ops_per_s": {"value": best, "unit": "1/s"}}}))
"""


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             bench: bool = False) -> dict:
    """One ``run.py --trace 0`` of ``tree`` — or, with ``bench``, one
    perf bench — in ``tree``: ``{"ok", "metrics": {name: value},
    "digest", "problem"}``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    if bench:
        command = [sys.executable, "-c", BENCH_RUN, workload]
        env["PYTHONPATH"] = str(tree / "src")
    else:
        command = [sys.executable, "benchmarks/e2e/run.py",
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          text=True, env=env)
    return parse_run(done.returncode, done.stdout)


def parse_run(returncode: int, stdout: str) -> dict:
    """What one run said, from its exit code and its standard output."""
    run = {"ok": False, "metrics": {}, "digest": None, "problem": None}
    lines = stdout.strip().splitlines()
    for line in lines:
        if line.split()[:1] == ["sim_digest"]:
            run["digest"] = line.split()[1]
    try:
        result = json.loads(lines[-1])
        run["metrics"] = {name: float(entry["value"])
                          for name, entry in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        run["problem"] = f"no result object (exit {returncode})"
        return run
    if returncode != 0 or not result.get("correct"):
        run["problem"] = f"output check failed (exit {returncode})"
    elif result.get("failed"):
        run["problem"] = f"{result['failed']} operations failed"
    run["ok"] = run["problem"] is None
    return run


# -- the verdict -------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, as ``run.py`` summarises its repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(parent: list[float], change: list[float], better: str,
          bound: float) -> dict:
    """One metric's row: ``parent[i]`` and ``change[i]`` are pair ``i``."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gain = sign * (c_median - p_median)
    spread = max((p_q3 - p_q1) / abs(p_median) if p_median else 0.0,
                 (c_q3 - c_q1) / abs(c_median) if c_median else 0.0)
    if (len(parent) >= MIN_PAIRS and won >= WIN_SHARE * len(parent)
            and gain > p_q3 - p_q1):
        verdict = "improved"
    elif p_median and -gain / abs(p_median) > bound:
        verdict = "regressed"
    elif spread > bound and not (
            min(sign * c for c in change) > max(sign * p for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": {"median": p_median, "q1": p_q1, "q3": p_q3,
                       "runs": parent},
            "change": {"median": c_median, "q1": c_q1, "q3": c_q3,
                       "runs": change},
            "ratio": c_median / p_median if p_median else None,
            "won": won, "lost": lost, "pairs": len(parent),
            "spread": spread, "bound": bound, "better": better,
            "verdict": verdict}


def compare(runs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """The table: ``runs`` is ``(parent run, change run)`` per pair,
    judged on ``metrics`` (``BENCHMARK.json``'s ``end_to_end`` form)."""
    problems = [f"pair {index} {side}: {run['problem']}"
                for index, pair in enumerate(runs, 1)
                for side, run in zip(("parent", "change"), pair)
                if not run["ok"]]
    digests = {side: sorted({run["digest"] for run in column
                             if run["digest"]})
               for side, column in zip(("parent", "change"), zip(*runs))}
    table = {"problems": problems, "sim_digest": digests, "metrics": {}}
    if problems:
        table["verdict"] = "failed run"
        return table
    for metric in metrics:
        name = metric["name"]
        table["metrics"][name] = judge(
            [parent["metrics"][name] for parent, _ in runs],
            [change["metrics"][name] for _, change in runs],
            metric["better"], metric["bound"])
    return table


def render(table: dict) -> str:
    lines = []
    for name, row in table["metrics"].items():
        lines.append(
            f"{name:<16} parent {row['parent']['median']:>10.6g} "
            f"[{row['parent']['q1']:.6g}, {row['parent']['q3']:.6g}]  "
            f"change {row['change']['median']:>10.6g} "
            f"[{row['change']['q1']:.6g}, {row['change']['q3']:.6g}]  "
            f"x{row['ratio']:.3f}  won {row['won']}/{row['pairs']} "
            f"(lost {row['lost']})  spread {row['spread']:.1%} vs bound "
            f"{row['bound']:.0%}  -> {row['verdict']}")
    digests = table["sim_digest"]
    if digests["parent"] == digests["change"] and len(digests["parent"]) == 1:
        lines.append(f"sim_digest       identical on every run: "
                     f"{digests['parent'][0]}")
    elif digests["parent"] or digests["change"]:    # a perf bench prints none
        lines.append(f"sim_digest       DIFFERS: parent {digests['parent']}, "
                     f"change {digests['change']}")
    lines.extend(f"FAILED RUN: {problem}" for problem in table["problems"])
    if table["problems"]:
        lines.append("-> failed run: no verdict on any metric")
    return "\n".join(lines)


# -- command line ------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf.pairs",
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20250)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--out", type=Path, help="write the table as JSON")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    mismatch = bytecode_mismatch(parent, change)
    if mismatch:
        print("refusing to start: the trees are not equally cached\n  "
              + "\n  ".join(mismatch[:10]), file=sys.stderr)
        return 2
    manifest = json.loads((parent / "BENCHMARK.json").read_text())
    seconds = (args.seconds if args.seconds is not None
               else float(manifest["run_seconds"]))
    metrics = manifest["end_to_end"]
    bench = args.workload not in {entry["name"]
                                  for entry in manifest["workloads"]}
    if bench:
        seconds = None
        metrics = [{**metric, "name": "ops_per_s"} for metric in metrics
                   if metric["name"] == "host_ops_per_s"]
    runs = []
    for index in range(1, args.pairs + 1):
        order = ("parent", "change") if index % 2 else ("change", "parent")
        pair = {}
        for side in order:
            tree = parent if side == "parent" else change
            pair[side] = run = run_once(tree, args.workload, args.seed,
                                        seconds, bench)
            shown = "  ".join(f"{name} {value:.6g}"
                              for name, value in run["metrics"].items())
            print(f"pair {index:>2} {side:<6} {shown}"
                  + (f"  !! {run['problem']}" if run["problem"] else ""),
                  flush=True)
        runs.append((pair["parent"], pair["change"]))
    table = compare(runs, metrics)
    table.update(workload=args.workload,
                 seed=None if bench else args.seed, seconds=seconds,
                 parent_tree=str(parent), change_tree=str(change))
    print(render(table))
    if args.out:
        args.out.write_text(json.dumps(table, indent=1, sort_keys=True)
                            + "\n")
    return 1 if table["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())

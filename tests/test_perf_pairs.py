"""``benchmarks/perf/pairs.py`` against a stub ``run.py``.

Two throw-away trees each hold a ``BENCHMARK.json`` and a
``benchmarks/e2e/run.py`` that prints the next of its canned results in
the real one's format (the metric lines, a ``sim_digest`` line, the
result object last). The tool must run them alternately, in their own
directories, and say: a win, a loss, an unresolved row, a failed run —
and refuse trees that are not equally cached. A perf bench is paired
the same way, through a stub ``benchmarks/perf`` in each tree.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.perf import pairs

MANIFEST = {
    "run_seconds": 8,
    "workloads": [{"name": "traffic_scan"}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "host_ops_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower",
         "bound": 0.05}]}

STUB = '''\
import json, sys
from pathlib import Path

here = Path.cwd()
assert Path(__file__).resolve() == here / "benchmarks/e2e/run.py", "cwd"
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
assert args["--trace"] == "0" and args["--workload"] == "traffic_scan"
cursor = here / "cursor"
index = int(cursor.read_text()) if cursor.exists() else 0
cursor.write_text(str(index + 1))
(here / "calls").open("a").write(json.dumps(args) + "\\n")
run = json.loads((here / "runs.json").read_text())[index]
if run.get("crash"):
    print("Traceback (most recent call last): boom")
    sys.exit(3)
print(f"traffic_scan: 3 repeats, {run['ops']} host_ops_per_s")
print(f"  host_ops_per_s  {run['ops']} 1/s")
print(f"  sim_digest           {run.get('digest', 'abc123')}")
print(json.dumps({"correct": run.get("correct", True), "attempted": 1000,
                  "failed": run.get("failed", 0), "metrics": {
    "setup_s": {"value": run.get("setup", 0.4), "unit": "s"},
    "host_ops_per_s": {"value": run["ops"], "unit": "1/s"},
    "peak_rss_mb": {"value": run.get("rss", 72.0), "unit": "MiB"}}}))
sys.exit(0 if run.get("correct", True) else 1)
'''


def tree(root: Path, name: str, runs: list[dict]) -> Path:
    base = root / name
    (base / "benchmarks/e2e").mkdir(parents=True)
    (base / "benchmarks/e2e/run.py").write_text(STUB)
    (base / "BENCHMARK.json").write_text(json.dumps(MANIFEST))
    (base / "runs.json").write_text(json.dumps(runs))
    return base


def compare(tmp_path, parent_runs, change_runs, capsys, extra=()):
    parent = tree(tmp_path, "parent", parent_runs)
    change = tree(tmp_path, "change", change_runs)
    out = tmp_path / "table.json"
    code = pairs.main(["--parent", str(parent), "--change", str(change),
                       "--workload", "traffic_scan", "--seed", "77003",
                       "--pairs", str(len(parent_runs)), "--out", str(out),
                       *extra])
    return code, json.loads(out.read_text()), capsys.readouterr().out


PARENT = [{"ops": ops} for ops in
          (35000, 40000, 38500, 39500, 35000, 36000, 37000, 38000, 36500,
           39000)]


def test_a_win(tmp_path, capsys):
    change = [{"ops": run["ops"] * 1.25, "rss": 73.0} for run in PARENT]
    code, table, printed = compare(tmp_path, PARENT, change, capsys)
    assert code == 0 and not table["problems"]
    row = table["metrics"]["host_ops_per_s"]
    assert row["verdict"] == "improved"
    assert (row["won"], row["lost"], row["pairs"]) == (10, 0, 10)
    assert row["ratio"] == pytest.approx(1.25)
    assert row["parent"]["runs"] == [run["ops"] for run in PARENT]
    # Must-not-move rows beside it: a tie is nobody's pair, +1 MiB of
    # 72 is inside the 5 % bound.
    assert table["metrics"]["setup_s"]["verdict"] == "within bound"
    assert table["metrics"]["setup_s"]["won"] == 0
    assert table["metrics"]["peak_rss_mb"]["verdict"] == "within bound"
    assert table["metrics"]["peak_rss_mb"]["lost"] == 10
    assert table["seed"] == 77003 and table["seconds"] == 8.0
    # Every run is printed, and the sides alternate who goes first.
    assert printed.count("\npair") + printed.startswith("pair") == 20
    order = [line.split()[2] for line in printed.splitlines()
             if line.startswith("pair")]
    assert order[:4] == ["parent", "change", "change", "parent"]
    assert "identical on every run: abc123" in printed
    assert "-> improved" in printed
    # Each tree ran its own run.py, with the arguments asked for.
    calls = [json.loads(line) for line in
             (tmp_path / "change/calls").read_text().splitlines()]
    assert len(calls) == 10 and calls[0] == {
        "--workload": "traffic_scan", "--seed": "77003", "--seconds": "8.0",
        "--trace": "0"}


def test_the_gain_rule():
    """Nine tenths of the pairs *and* a gap wider than the parent's own
    quartiles (choosing-metrics section 8); ties are nobody's."""
    parent = [run["ops"] for run in PARENT]
    better = [ops * 1.25 for ops in parent]

    def verdict(change):
        row = pairs.judge(parent, change, "higher", 0.25)
        return row["won"], row["lost"], row["verdict"]

    assert verdict(better) == (10, 0, "improved")
    assert verdict([30000.0] + better[1:]) == (9, 1, "improved")
    assert verdict([30000.0, 30000.0] + better[2:]) == (
        8, 2, "within bound")
    assert verdict(parent[:2] + better[2:]) == (8, 0, "within bound")
    # Ten of ten pairs, but +2 % against quartiles 9 % apart.
    assert verdict([ops * 1.02 for ops in parent]) == (
        10, 0, "within bound")
    # Lower is better: the same numbers the other way round.
    row = pairs.judge(better, parent, "lower", 0.25)
    assert (row["won"], row["verdict"]) == (10, "improved")
    # Five of five is not ten pairs: nothing to claim a gain on.
    row = pairs.judge(parent[:5], better[:5], "higher", 0.25)
    assert (row["won"], row["verdict"]) == (5, "within bound")


def test_a_loss(tmp_path, capsys):
    change = [{"ops": run["ops"] * 0.7, "setup": 0.55} for run in PARENT[:4]]
    code, table, printed = compare(tmp_path, PARENT[:4], change, capsys)
    assert code == 0
    assert table["metrics"]["host_ops_per_s"]["verdict"] == "regressed"
    assert table["metrics"]["host_ops_per_s"]["lost"] == 4
    # Lower is better for set-up: 0.4 -> 0.55 s is +37 %.
    assert table["metrics"]["setup_s"]["verdict"] == "regressed"
    assert "-> regressed" in printed


def test_an_unresolved_row(tmp_path, capsys):
    # The parent alone spreads 28k-60k: medians 3 % apart say nothing.
    parent = [{"ops": ops} for ops in
              (28000, 60000, 31000, 52000, 45000, 33000, 58000, 40000)]
    change = [{"ops": ops} for ops in
              (59000, 29000, 50000, 30000, 34000, 47000, 41000, 57000)]
    _, table, printed = compare(tmp_path, parent, change, capsys)
    row = table["metrics"]["host_ops_per_s"]
    assert row["verdict"] == "unresolved"
    assert row["spread"] > row["bound"] and row["won"] == row["lost"] == 4
    assert "-> unresolved" in printed


def test_a_wide_spread_resolves_when_every_run_is_better():
    parent = [28000.0, 60000.0, 31000.0, 52000.0]
    change = [61000.0, 59000.0, 90000.0, 62000.0]
    # Medians 41.5k -> 61.5k, but inside quartiles 28k apart and one
    # pair lost: no gain to claim, and nothing to tell "no worse" by.
    assert pairs.judge(parent, change, "higher", 0.25)["verdict"] == (
        "unresolved")
    # Unless no run of the change reads worse than any of the parent.
    parent[1] = 58000.0
    row = pairs.judge(parent, change, "higher", 0.25)
    assert row["spread"] > 0.25 and row["verdict"] == "within bound"


@pytest.mark.parametrize("bad, said", [
    ({"crash": True}, "no result object (exit 3)"),
    ({"ops": 40000, "correct": False}, "output check failed (exit 1)"),
    ({"ops": 40000, "failed": 7}, "7 operations failed")])
def test_a_failed_run(tmp_path, capsys, bad, said):
    change = [{"ops": 45000}, bad, {"ops": 46000}]
    code, table, printed = compare(tmp_path, PARENT[:3], change, capsys)
    assert code == 1
    assert table["verdict"] == "failed run" and not table["metrics"]
    assert table["problems"] == [f"pair 2 change: {said}"]
    assert f"FAILED RUN: pair 2 change: {said}" in printed
    assert "no verdict on any metric" in printed
    assert printed.count("pair ") >= 6          # the other runs still ran


def test_a_digest_that_moved_is_reported(tmp_path, capsys):
    change = [{"ops": 45000, "digest": "def456"} for _ in PARENT[:2]]
    _, table, printed = compare(tmp_path, PARENT[:2], change, capsys)
    assert table["sim_digest"] == {"parent": ["abc123"],
                                   "change": ["def456"]}
    assert "sim_digest       DIFFERS" in printed


def test_unequally_cached_trees_are_refused(tmp_path, capsys):
    parent = tree(tmp_path, "parent", PARENT[:2])
    change = tree(tmp_path, "change", PARENT[:2])
    for base in (parent, change):
        (base / "src/repro").mkdir(parents=True)
        (base / "src/repro/chip.py").write_text("")
    (change / "src/repro/kernel.py").write_text("")     # a new module
    cache = change / "src/repro/__pycache__"
    cache.mkdir()
    (cache / "kernel.cpython-311.pyc").write_bytes(b"")
    argv = ["--parent", str(parent), "--change", str(change),
            "--workload", "traffic_scan", "--pairs", "1"]
    # A cached file the other tree has no source for is not a mismatch.
    assert pairs.main(argv) == 0
    (cache / "chip.cpython-311.pyc").write_bytes(b"")
    capsys.readouterr()
    assert pairs.main(argv) == 2
    refusal = capsys.readouterr().err
    assert "refusing to start" in refusal
    assert "change/src/repro/chip.py is cached" in refusal
    assert (parent / "cursor").read_text() == "1"       # nothing more ran
    (parent / "src/repro/__pycache__").mkdir()
    (parent / "src/repro/__pycache__/chip.cpython-312.pyc").write_bytes(b"")
    assert pairs.main(argv) == 0


BENCH_STUB = '''\
import json, sys
from pathlib import Path

here = Path.cwd()
assert Path(sys.path[1]) == here / "src", sys.path


def fleet_step_micro():
    cursor = here / "cursor"
    index = int(cursor.read_text()) if cursor.exists() else 0
    cursor.write_text(str(index + 1))
    return {"ops": json.loads((here / "runs.json").read_text())[index],
            "wall_s": 1.0, "meta": {}}
'''


def bench_tree(root: Path, name: str, runs: list[float]) -> Path:
    base = tree(root, name, [])
    (base / "src").mkdir()
    perf = base / "benchmarks/perf"
    perf.mkdir()
    (base / "benchmarks/__init__.py").write_text("")
    (perf / "__init__.py").write_text("")
    (perf / "harness.py").write_text("def rounds():\n    return 3\n")
    (perf / "workloads.py").write_text(BENCH_STUB)
    (base / "runs.json").write_text(json.dumps(runs))
    return base


def test_a_perf_bench_is_paired_on_its_best_round(tmp_path, capsys):
    """A name ``BENCHMARK.json`` does not list is a perf bench: each run
    is a fresh process timing the harness's rounds in its own tree, and
    the best round is judged like ``host_ops_per_s``."""
    parent_ops = [run["ops"] for run in PARENT[:9]] + [30000]
    # Three rounds a process: the middle one is the best.
    parent = bench_tree(tmp_path, "parent", [
        ops * scale for ops in parent_ops for scale in (0.5, 1.0, 0.9)])
    change = bench_tree(tmp_path, "change", [
        ops * scale * 1.25 for ops in parent_ops for scale in (0.9, 1.0, 0.5)])
    out = tmp_path / "table.json"
    code = pairs.main(["--parent", str(parent), "--change", str(change),
                       "--workload", "fleet_step_micro", "--pairs", "10",
                       "--out", str(out)])
    printed = capsys.readouterr().out
    table = json.loads(out.read_text())
    assert code == 0 and not table["problems"]
    assert list(table["metrics"]) == ["ops_per_s"]
    row = table["metrics"]["ops_per_s"]
    assert row["parent"]["runs"] == parent_ops
    assert row["ratio"] == pytest.approx(1.25)
    assert (row["verdict"], row["won"], row["bound"]) == ("improved", 10,
                                                          0.25)
    assert table["seed"] is None and table["seconds"] is None
    assert "-> improved" in printed and "sim_digest" not in printed
    assert (parent / "cursor").read_text() == "30"


def test_every_floored_bench_resolves_through_the_lookup():
    """Each bench ``baseline.json`` floors is a name ``--workload`` can
    pair: the run's own lookup finds a workloads function by it."""
    from types import SimpleNamespace

    from benchmarks.perf import workloads

    floors = json.loads((Path(pairs.__file__).parent
                         / "baseline.json").read_text())["benches"]
    for name in floors:
        run = {"workloads": workloads,
               "sys": SimpleNamespace(argv=["-c", name])}
        assert eval(pairs.BENCH_LOOKUP, run).__name__ == name

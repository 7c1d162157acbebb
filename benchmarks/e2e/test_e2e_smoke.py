"""Smoke test of the repo benchmark at ``--quick`` scale.

Outside tier-1 ``testpaths`` (it spawns ~40 short subprocesses, ~1 min):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import compare, metrics

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, "benchmarks/e2e/run.py"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    subprocess.run(RUN + ["--quick", "--seconds", "0.2", "--out", str(out)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return compare.load(str(out))


def test_manifest_is_the_catalogue():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == metrics.manifest()
    for workload in manifest["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def test_document_schema(document):
    assert document["schema"] == metrics.SCHEMA
    assert set(document["workloads"]) == set(metrics.WORKLOADS)
    for name, section in document["workloads"].items():
        assert section["problems"] == [], name
        assert section["failed"] == 0 and section["attempted"] >= 1
        assert section["repeats"] >= 3
        assert re.fullmatch(r"[0-9a-f]{64}", section["sim_digest"])
        end_to_end = section["end_to_end"]
        for metric in metrics.HOST:
            entry = end_to_end[metric.name]
            assert entry["unit"] == metric.unit
            assert entry["q1"] <= entry["median"] <= entry["q3"]
            assert len(entry["values"]) >= 3
            assert entry["median"] > 0
        assert end_to_end["failed_op_share"]["median"] == 0
        assert set(end_to_end) <= {m.name for m in metrics.END_TO_END}
        # Counts a workload has no use for are absent here (and 0 in
        # the driver's per-layer output); the ledger is always whole.
        reported = set(section["per_layer"]) - {"trace.spans"}
        assert reported <= {m.name for m in metrics.PER_LAYER}, name
        assert reported >= {m.name for m in metrics.LEDGER} | {
            "trace.overhead_ratio", "trace.unattributed_share"}, name
        assert all(NAME.fullmatch(key) for key in section["per_layer"])
        assert all(NAME.fullmatch(key) for key in section["counts"])


def test_every_sim_metric_is_reported_somewhere(document):
    seen = set()
    for section in document["workloads"].values():
        seen |= set(section["end_to_end"])
    assert seen == {m.name for m in metrics.END_TO_END}


def test_ledger_accounts_for_the_traced_wall(document):
    for name, section in document["workloads"].items():
        per_layer = section["per_layer"]
        shares = sum(per_layer[f"{layer}.self_share"]
                     for layer in metrics.LAYERS)
        assert abs(shares + per_layer["trace.unattributed_share"] - 1) < 0.02
        assert per_layer["trace.unattributed_share"] < 0.02, name
        assert per_layer["trace.overhead_ratio"] > 0
        assert section["dominant_layer"] in metrics.LAYERS


def test_each_layer_runs_on_some_workload_and_not_on_another(document):
    for layer in metrics.LAYERS:
        calls = [section["per_layer"][f"{layer}.calls"]
                 for section in document["workloads"].values()]
        assert max(calls) > 0 and min(calls) == 0, (layer, calls)


def test_self_compare_is_all_ok(document):
    rows = compare.compare(document, document)
    assert rows and all(row["verdict"] == "ok" for row in rows)


def test_compare_flags_a_slowdown_and_a_changed_digest(document):
    slower = json.loads(json.dumps(document))
    section = slower["workloads"]["fleet_grid"]
    entry = section["end_to_end"]["host_ops_per_s"]
    for key in ("median", "q1", "q3"):
        entry[key] /= 2
    entry["values"] = [value / 2 for value in entry["values"]]
    section["sim_digest"] = "0" * 64
    verdicts = {(row["workload"], row["metric"]): row["verdict"]
                for row in compare.compare(document, slower)}
    assert verdicts["fleet_grid", "host_ops_per_s"] in ("worse", "unresolved")
    assert verdicts["fleet_grid", "sim_digest"] == "differs"
    assert verdicts["traffic_scan", "host_ops_per_s"] == "ok"


@pytest.mark.parametrize("trace, wanted", [
    (0, [m.name for m in metrics.HOST]),
    (1, [m.name for m in metrics.PER_LAYER]),
])
def test_driver_contract(trace, wanted):
    done = subprocess.run(
        RUN + ["--workload", "fleet_grid", "--seed", "7", "--seconds", "0.2",
               "--trace", str(trace), "--quick"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == wanted
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float)), name


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark has nothing to measure."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks/e2e", tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        RUN + ["--workload", "fleet_grid", "--seed", "7", "--seconds", "1",
               "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

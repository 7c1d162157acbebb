"""Measurement log, schema validation and slowdown gate for perf benches.

Design notes:

* **Append-only history.** ``BENCH_perf.json`` keeps the last
  ``HISTORY_CAP`` entries per bench so a slow regression shows up as a
  trajectory, not just a single bad sample. The file is committed — CI
  diffs behaviour against the repo's own recorded past, not against
  whatever machine it happens to run on today.
* **Conservative floors.** Wall-clock on shared runners is noisy (the
  same code has measured anywhere between 0.6x and 1.0x of its typical
  throughput here), so ``baseline.json`` floors are set well below
  typical numbers and the gate only fires at ``MAX_SLOWDOWN``x below
  the floor. The gate is for *catastrophic* regressions — reintroducing
  an O(n) scan on the write path — not for 10% noise.
* **Opt-in enforcement.** Local runs always record; only
  ``REPRO_PERF_ENFORCE=1`` (set in CI's perf-smoke job) turns a miss
  into a failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro import context
from repro.obs import MetricsRegistry
from repro.obs.noop import NULL_METRICS

PERF_SCHEMA = "repro.bench_perf/v1"

_RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
RESULTS_PATH = _RESULTS_DIR / "BENCH_perf.json"
BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"

#: Entries of history kept per bench in BENCH_perf.json.
HISTORY_CAP = 50
#: A bench fails (under enforcement) below ``baseline / MAX_SLOWDOWN``.
MAX_SLOWDOWN = 2.0
#: Measurement rounds per bench; the *best* round is recorded. Machine
#: noise on shared runners only ever subtracts throughput (the committed
#: history swings 273k<->450k ops/s on identical code), so the max over a
#: few rounds estimates the code's true speed far more stably than any
#: single run — which is what makes floor ratcheting safe.
DEFAULT_ROUNDS = 3

_ENTRY_KEYS = ("at", "ops", "wall_s", "ops_per_sec", "meta")


def enforcing() -> bool:
    """True when regressions should fail, not just be recorded."""
    return os.environ.get("REPRO_PERF_ENFORCE", "") == "1"


# -- document I/O ------------------------------------------------------------

def load_document(path: Path = RESULTS_PATH) -> dict:
    """Load ``BENCH_perf.json``; a missing file is an empty history."""
    if not path.exists():
        return {"schema": PERF_SCHEMA, "benches": {}}
    document = json.loads(path.read_text())
    validate_perf_document(document)
    return document


def validate_perf_document(document: dict) -> None:
    """Schema check for ``repro.bench_perf/v1`` documents."""
    if not isinstance(document, dict):
        raise ValueError("perf document must be a JSON object")
    if document.get("schema") != PERF_SCHEMA:
        raise ValueError(
            f"unsupported perf schema: {document.get('schema')!r}")
    benches = document.get("benches")
    if not isinstance(benches, dict):
        raise ValueError("perf document missing 'benches' object")
    for name, entries in benches.items():
        if not isinstance(entries, list) or not entries:
            raise ValueError(f"bench {name!r} has no entries")
        for entry in entries:
            for key in _ENTRY_KEYS:
                if key not in entry:
                    raise ValueError(
                        f"bench {name!r} entry missing {key!r}")
            if entry["ops_per_sec"] <= 0 or entry["wall_s"] <= 0:
                raise ValueError(
                    f"bench {name!r} entry has non-positive timing")


def record(name: str, ops: int, wall_s: float,
           meta: dict | None = None) -> dict:
    """Append one measurement, publish obs gauges, return the entry."""
    entry = {
        "at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "ops": int(ops),
        "wall_s": round(float(wall_s), 6),
        # Six significant digits: a one-op entry (``time_command``) must
        # not round to a zero rate, which the schema rejects.
        "ops_per_sec": float(f"{ops / wall_s:.6g}"),
        "meta": meta or {},
    }
    document = load_document()
    history = document["benches"].setdefault(name, [])
    history.append(entry)
    del history[:-HISTORY_CAP]
    _RESULTS_DIR.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n")
    _publish_metrics(name, entry)
    return entry


# -- obs surfacing -----------------------------------------------------------

def _set_gauges(registry, name: str, entry: dict) -> None:
    ops_gauge = registry.gauge(
        "repro_perf_ops_per_second",
        help="Throughput of the named perf bench's hot loop",
        unit="ops/s", labelnames=("bench",))
    wall_gauge = registry.gauge(
        "repro_perf_wall_seconds",
        help="Wall-clock of the named perf bench's hot loop",
        unit="s", labelnames=("bench",))
    ops_gauge.labels(bench=name).set(entry["ops_per_sec"])
    wall_gauge.labels(bench=name).set(entry["wall_s"])


def _publish_metrics(name: str, entry: dict) -> None:
    """Surface the measurement as ``repro_perf_*`` gauges.

    Perf benches run with observability *off* (timing purity — see
    ``@pytest.mark.no_obs``), so when no registry is live we open a
    short-lived one purely to export a snapshot next to the other bench
    telemetry under ``benchmarks/results/metrics/``.
    """
    registry = context.current().metrics
    if registry is not NULL_METRICS:
        _set_gauges(registry, name, entry)
        return
    registry = MetricsRegistry()
    _set_gauges(registry, name, entry)
    metrics_dir = _RESULTS_DIR / "metrics"
    metrics_dir.mkdir(parents=True, exist_ok=True)
    registry.write_json(metrics_dir / f"perf-{name}.json")


def export_endurance(name: str, ledger) -> Path:
    """Write a bench's wear-ledger records next to ``BENCH_perf.json``.

    Per-bench ``repro.obs.endurance/v1`` snapshots land under
    ``benchmarks/results/endurance/`` so a perf run documents not just
    how fast the hot loop was but what wear it caused — the same
    decomposition ``repro wear report`` renders.
    """
    wear_dir = _RESULTS_DIR / "endurance"
    return ledger.export_jsonl(wear_dir / f"perf-{name}.jsonl",
                               meta={"bench": name})


# -- regression gate ---------------------------------------------------------

def baseline_for(name: str) -> float | None:
    """Committed ops/s floor for ``name`` (None: no floor recorded)."""
    if not BASELINE_PATH.exists():
        return None
    floors = json.loads(BASELINE_PATH.read_text())
    value = floors.get("benches", {}).get(name)
    return float(value) if value is not None else None


def check(name: str, ops_per_sec: float) -> str | None:
    """Return a failure message if ``name`` breached its floor."""
    floor = baseline_for(name)
    if floor is None:
        return None
    threshold = floor / MAX_SLOWDOWN
    if ops_per_sec < threshold:
        return (f"perf regression: {name} ran at {ops_per_sec:.0f} ops/s, "
                f"more than {MAX_SLOWDOWN:.0f}x below its baseline floor "
                f"of {floor:.0f} ops/s (threshold {threshold:.0f})")
    return None


def enforce(name: str, ops_per_sec: float) -> None:
    """Fail the bench on a breached floor when enforcement is on."""
    message = check(name, ops_per_sec)
    if message and enforcing():
        raise AssertionError(message)
    if message:
        print(f"[perf] WARNING (not enforced): {message}", file=sys.stderr)


def rounds() -> int:
    """Measurement rounds per bench (``REPRO_PERF_ROUNDS`` overrides)."""
    try:
        return max(1, int(os.environ.get("REPRO_PERF_ROUNDS",
                                         DEFAULT_ROUNDS)))
    except ValueError:
        return DEFAULT_ROUNDS


def run(name: str, workload) -> dict:
    """Measure ``workload`` (a zero-arg callable returning
    ``{"ops", "wall_s", "meta"}``) over :func:`rounds` rounds, record
    the best round and apply the gate to it.

    Workloads build their fixtures inside the callable, so every round
    is an independent, deterministic measurement; the recorded entry is
    the fastest one (see ``DEFAULT_ROUNDS`` for why best-of, not last).
    """
    best = None
    for _ in range(rounds()):
        result = workload()
        if best is None or (result["ops"] / result["wall_s"]
                            > best["ops"] / best["wall_s"]):
            best = result
    meta = dict(best.get("meta") or {})
    meta["rounds"] = rounds()
    entry = record(name, best["ops"], best["wall_s"], meta)
    print(f"[perf] {name}: {entry['ops_per_sec']:.0f} ops/s "
          f"({entry['wall_s']:.3f}s for {entry['ops']} ops, "
          f"best of {meta['rounds']})")
    enforce(name, entry["ops_per_sec"])
    return entry


# -- CI entry point ----------------------------------------------------------

def time_command(name: str, command: list[str]) -> int:
    """Run ``command``, record its wall seconds under ``name`` (one op,
    so ``wall_s`` is the reading) and return its exit code. A failed
    command records nothing."""
    start = time.perf_counter()
    code = subprocess.call(command)
    wall_s = time.perf_counter() - start
    if code == 0:
        record(name, 1, wall_s, {"command": " ".join(command)})
        # Three significant digits: a cold start is ~0.4 s.
        print(f"[perf] {name}: {wall_s:.3g}s wall")
    return code


def main(argv: list[str] | None = None) -> int:
    """``python -m benchmarks.perf.harness --check``: validate the
    committed BENCH_perf.json and gate each bench's *latest* entry
    against its baseline floor. Exit 0 on pass, 1 on any breach or
    schema error. ``--time NAME COMMAND...`` instead runs a command and
    appends its wall seconds (CI tracks the tier-1 suite this way)."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) >= 3 and argv[0] == "--time":
        return time_command(argv[1], argv[2:])
    if argv and argv != ["--check"]:
        print("usage: python -m benchmarks.perf.harness "
              "[--check | --time NAME COMMAND...]", file=sys.stderr)
        return 2
    try:
        document = load_document()
    except (ValueError, json.JSONDecodeError) as error:
        print(f"[perf] schema error: {error}", file=sys.stderr)
        return 1
    failures = 0
    for name, entries in sorted(document["benches"].items()):
        latest = entries[-1]
        message = check(name, latest["ops_per_sec"])
        status = "FAIL" if message else "ok"
        floor = baseline_for(name)
        floor_text = f"floor {floor:.0f}" if floor else "no floor"
        print(f"[perf] {status:>4} {name}: "
              f"{latest['ops_per_sec']:.0f} ops/s ({floor_text})")
        if message:
            print(f"[perf]      {message}", file=sys.stderr)
            failures += 1
    if not document["benches"]:
        print("[perf] no recorded benches", file=sys.stderr)
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

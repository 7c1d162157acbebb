"""Which functions of ``src/repro`` does any production driver enter?

    python -m benchmarks.perf.reach [--only e2e,bench,cli,examples] [--log FILE]

Runs the five ``BENCHMARK.json`` workloads at full size (``--trace 0``:
``--trace 1`` installs its own profiler), ``pytest benchmarks
--ignore=benchmarks/e2e``, the CLI lines below (every subcommand,
``ci.yml`` line and path-selecting flag or scenario kind) and the
examples, with a ``sys.setprofile`` recorder in every Python process they
start (a generated ``sitecustomize``), then prints the function lines
(``def`` through last statement) never entered. Tests are not a driver:
DESIGN.md ("Reached only by tests, and why it stays") owes a reason for
every name listed. A code object is logged when a pid first sees it, not
at ``atexit`` (pool workers leave through ``os._exit``), and
pytest-benchmark's ``sys.setprofile(None)`` re-installs the recorder.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = str(ROOT / "src" / "repro") + os.sep
SCN = ROOT / "scenarios"
WORKLOADS = "traffic_mixed traffic_scan device_wearout cluster_churn fleet_grid"
FLEET = "--devices 6 --blocks 16 --years 2 --step-days 20"
SLO = f"slo --slo {SCN}/slo_default.json"
TRAFFIC = "traffic --tenants 12 --duration 4000"
#: ``repro`` commands (one a line, or `` ; ``-separated), run in a scratch
#: directory in this order: later ones read what earlier ones wrote.
#: ``!`` marks one whose non-zero exit is the behaviour being driven (the
#: last three: a directory, a non-UTF-8 file and a mistyped field, exit 2).
CLI = f"""--version ; fig2 ; fig2 --ecc-family ldpc ; tco ; carbon ; carbon --ru 0.5 --renewable
fleet --devices 8 --years 2 --blocks 32 --metrics-out m.json --trace-out t.jsonl --timeseries-out ts.jsonl --reqtrace-out rt.jsonl --endurance-out e.jsonl --slo {SCN}/slo_default.json
fleet {FLEET} --out f1.json --timeseries-out ts.csv ; fleet {FLEET} --shards 4 --jobs 2 --out f4.json
fleet {FLEET} --faults plan.json --out ff.json ; health --devices 30 --max-days 1500
sweep {FLEET} --runs 2 --jobs 2 --faults plan.json --out s.json ; tournament --blocks 16 --pec-limit 12 ; replacement --slots 20 --years 6
run {SCN}/quick_fleet.json --out results --metrics-out rm.json --trace-out rtr.jsonl --timeseries-out rts.jsonl
run {SCN}/faulty_fleet.json --out results ; run {SCN}/fig2_ldpc.json --out results
run {SCN}/measured_upgrade_rates.json --out results ; run tournament.json --out results
run carbon.json --out results ; run tco.json --out results
traffic --tenants 48 --duration 8000 --cells 2 --arrival mmpp --jobs 2 --out tr.json
{TRAFFIC} --shards 4 --jobs 1 --out tr4.json ; {TRAFFIC} --cells 1 --trace ops.trace --out trt.json
{TRAFFIC} --cells 1 --slo {SCN}/traffic_slo.json --out trs.json --metrics-out tm.json
!{TRAFFIC} --cells 1 --read-fraction 1.0 --slo bad_slo.json --out trb.json
{TRAFFIC} --cells 1 --mode regen --closed-loop 0.5 --think 50 --admission shed --read-span 4 --read-fraction 0.5 --out trc.json
report --metrics m.json --timeseries ts.jsonl --trace t.jsonl --endurance e.jsonl --markdown r.md --json r.json
report --json io.json --markdown io.md ; report --timeseries ts.csv --artifact results/quick-fleet.json --markdown ra.md
{SLO} --reqtrace rt.jsonl --json slo.json ; {SLO} --measure --requests 60 --jobs 2
{SLO} --measure --mode baseline --requests 120 --every 4 --reqtrace-out rt2.jsonl
wear report --endurance e.jsonl --check --waf-budget 50 ; wear diff --endurance e.jsonl --against e.jsonl
wear forecast --endurance e.jsonl --horizon 1000 --json wf.json ; !run missing.json
!report --metrics results ; !wear report --endurance not_utf8 ; !slo --slo mistyped_slo.json --measure"""
FILES = {  # inputs named above that no shipped file provides
    "plan.json": '{"schema": "repro.faults/v1", "events": [{"site": "fleet.step",'
    ' "fault": "device_loss", "when": 4, "args": {"devices": 2}}]}',
    "ops.trace": "# trace n_lbas=64\nW 1 00\nR 1\nT 1\nW 2\n", "tco.json": '{"name": "o", "kind": "tco"}',
    "bad_slo.json": '{"schema": "repro.obs.slo/v1", "objectives": [{"name": "x", "kind":'
    ' "latency", "percentile": 50.0, "threshold_us": 0.001, "window_us": 1e6}]}',
    "tournament.json": '{"name": "t", "kind": "tournament", "params": {"blocks": 16}}',
    "carbon.json": '{"name": "c", "kind": "carbon"}', "not_utf8": "\xff\xfe",
    "mistyped_slo.json": '{"schema": "repro.obs.slo/v1", "objectives": [{"name": "x",'
    ' "percentile": "p", "threshold_us": 1}]}'}


def install() -> None:
    """Record into ``$REPRO_REACH_LOG`` from this process on."""
    fd = os.open(os.environ["REPRO_REACH_LOG"],
                 os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    seen: set[types.CodeType] = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code not in seen:
            seen.add(code)
            if code.co_filename.startswith(SRC):
                os.write(fd, f"{code.co_filename}:{code.co_firstlineno}\n".encode())

    real = sys.setprofile
    sys.setprofile = lambda function: real(function or hook)
    threading.setprofile(hook)
    real(hook)


def functions(code: types.CodeType, prefix: str = ""):
    """``(firstlineno, qualified name, lines)`` of every ``def`` under ``code``."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and const.co_name[0] != "<":
            name = prefix + const.co_name
            if const.co_flags & 0x2:   # CO_NEWLOCALS: a function
                last = max(line for *_, line in const.co_lines() if line)
                yield const.co_firstlineno, name, last - const.co_firstlineno + 1
            yield from functions(const, name + ".")


def drive(only: list[str], log: Path) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        Path(scratch, "sitecustomize.py").write_text(
            f"import runpy; runpy.run_path({str(Path(__file__))!r})['install']()\n")
        env = {**os.environ, "REPRO_REACH_LOG": str(log),
               "PYTHONPATH": os.pathsep.join([scratch, str(ROOT / "src")])}
        for name, text in FILES.items():
            Path(scratch, name).write_bytes(text.encode("latin-1"))   # \xff stays one byte
        families = {   # name -> [(arguments to the interpreter, cwd)]
            "e2e": [(f"benchmarks/e2e/run.py --workload {workload} --seed 20250"
                     " --seconds 0.1 --trace 0", ROOT) for workload in WORKLOADS.split()],
            "bench": [("-m pytest benchmarks --ignore=benchmarks/e2e -q -p no:cacheprovider", ROOT)],
            "cli": [("-m repro " + line, scratch) for line in CLI.replace(" ; ", "\n").splitlines()],
            "examples": [(str(example), scratch) for example in
                         sorted((ROOT / "examples").glob("*.py"))]}
        history = ROOT / "benchmarks/results/BENCH_perf.json"
        kept = history.read_bytes()   # the perf benches append their (profiled) rates
        try:
            for line, cwd in (pair for name in families if name in only
                              for pair in families[name]):
                print("+", line[:100], flush=True)
                done = subprocess.run(
                    [sys.executable, *line.replace("!", "").split()], cwd=cwd,
                    env=env, stdout=subprocess.DEVNULL)
                if done.returncode and "!" not in line:
                    raise SystemExit(f"driver failed ({done.returncode})")
        finally:
            history.write_bytes(kept)


def report(log: Path) -> None:
    hit = set(log.read_text().splitlines())
    total = unreached = 0
    for path in sorted(Path(SRC).rglob("*.py")):
        found = list(functions(compile(path.read_text(), str(path), "exec")))
        missed = [row for row in found if f"{path}:{row[0]}" not in hit]
        total += sum(lines for *_, lines in found)
        unreached += (lost := sum(lines for *_, lines in missed))
        if missed:
            print(f"{path.relative_to(ROOT)}: {lost} lines unreached")
        for first, name, lines in missed:
            print(f"    {lines:4d}  {name}  (line {first})")
    print(f"unreached: {unreached} of {total} function lines "
          f"({100 * unreached / total:.0f} %)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default="e2e,bench,cli,examples")
    parser.add_argument("--log", default=tempfile.mkstemp(suffix=".reach")[1],
                        help="append to / report from this hit log")
    args = parser.parse_args()
    drive(args.only.split(","), Path(args.log).resolve())
    report(Path(args.log))

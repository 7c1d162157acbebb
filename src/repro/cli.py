"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro run SCENARIO.json [--out DIR] [--jobs N]
    python -m repro report DIR [--against DIR2]

``run`` is the one door to the paper's experiments: each is a scenario
kind of :mod:`repro.scenarios`, and ``scenarios/`` ships one file per
experiment (``fleet.json`` and ``fleet_sweep.json`` for Fig. 3a/3b,
``fig2.json``, ``tournament.json``, ``carbon.json``, ``tco.json``,
``measured_upgrade_rates.json``, ``health.json``, ``traffic.json`` and
``traffic_slo.json`` for the traffic engine, ``probe.json`` and
``slo_default.json`` for the request-traced IO probe, and
``agreement.json`` for the §4.2 measurements). ``run`` writes a run
directory under fixed names (the constants below) and ``report`` only
reads it, simulating nothing: the paper's claims, plus the wear tables
over a probe's wear ledger; docs/OBSERVABILITY.md ("Where output lands")
has the table. See DESIGN.md for the experiment-to-paper mapping.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from repro import artifact, context
from repro.errors import ConfigError
from repro.obs import MetricsRegistry, SimTimeTracer, TimeseriesSampler
from repro.reporting.tables import format_table
from repro.scenarios import ENDURANCE, load_scenario, run_scenario


def _version() -> str:
    """Installed distribution version, falling back to the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version
        return version("repro")
    except PackageNotFoundError:
        import repro
        return repro.__version__


#: The run directory's file names: what ``run`` writes into its
#: ``--out`` directory beside ``<name>.json`` and what the readers look
#: for. A probe scenario adds :data:`~repro.scenarios.REQTRACE` and
#: :data:`~repro.scenarios.ENDURANCE`.
METRICS = "metrics.json"
TRACE = "trace.jsonl"
TIMESERIES = "timeseries.jsonl"


def _observability(args: argparse.Namespace) -> dict:
    """The run-context sinks of the command: ``run`` writes
    :data:`METRICS`, :data:`TRACE` and :data:`TIMESERIES` into its
    output directory, each only if it recorded something; no other
    command writes any.

    :func:`main` scopes them around the whole command, so every
    experiment object binds them at construction.
    """
    if args.command != "run":
        return {}
    metrics = MetricsRegistry()
    return {"metrics": metrics, "tracer": SimTimeTracer(),
            "timeseries": TimeseriesSampler(
                registry=metrics, cadence=args.timeseries_cadence)}


def _write_observability(out: str) -> None:
    """Write into ``out`` each sink :func:`_observability` scoped that
    recorded something: a registry with a family, a tracer with a
    record, a sampler with a series. An empty one leaves the file of a
    run before it (a fleet's, say) in place."""
    ctx = context.current()
    out = Path(out)
    if len(ctx.metrics):
        print(f"metrics -> {ctx.metrics.write_json(out / METRICS)}")
    if ctx.tracer.records():
        print(f"trace -> {ctx.tracer.export_jsonl(out / TRACE)}")
    if len(ctx.timeseries):
        print(f"timeseries -> "
              f"{ctx.timeseries.export_jsonl(out / TIMESERIES)}")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.sim.parallel import resolve_jobs

    # Read here; run_scenario validates it and builds its config, once.
    document = load_scenario(args.scenario)
    if args.faults:
        from repro.faults import FaultPlan

        # The CLI flag overrides any plan embedded in the scenario file.
        document = {**document,
                    "faults": FaultPlan.load(args.faults).to_dict()}
    writer = run_scenario(document, jobs=resolve_jobs(args.jobs))
    path = writer.write(args.out)
    _write_observability(args.out)
    print(f"scenario {document['name']!r} ({document['kind']}) -> {path}")
    for name in writer.files:
        print(f"{name} -> {path.parent / name}")
    tables = writer.document()["tables"]
    for name, table in tables.items():
        print(format_table(table["headers"], table["rows"], title=name))
    slo = tables.get("slo")     # a traffic or probe scenario's objectives
    if slo and not all(dict(zip(slo["headers"], row))["ok"]
                       for row in slo["rows"]):
        print("repro run: one or more SLOs VIOLATED", file=sys.stderr)
        return EXIT_CLAIM_FAILED
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.analyze import load_trace_jsonl
    from repro.obs.endurance import load_endurance, wear_tables
    from repro.obs.metrics import validate_metrics_document
    from repro.obs.timeseries import load_timeseries
    from repro.reporting.claims import (
        build_report,
        format_report,
        report_failed,
    )
    from repro.reporting.export import load_experiments

    loaders = {
        METRICS: lambda path: validate_metrics_document(
            artifact.read_json(path, "metrics artifact")),
        TIMESERIES: load_timeseries,
        TRACE: load_trace_jsonl,
        # Validated at load: a malformed ledger is exit 2, not a claim.
        ENDURANCE: lambda path: load_endurance(path)[1],
    }
    run_dir = artifact.run_dir(args.dir)
    # With --against, both directories must hold the wear ledger.
    found = {name: load(run_dir / name)
             for name, load in loaders.items()
             if (run_dir / name).exists()
             or (name == ENDURANCE and args.against is not None)}
    against = (None if args.against is None else loaders[ENDURANCE](
        artifact.run_dir(args.against) / ENDURANCE))
    report = build_report(
        metrics_doc=found.get(METRICS),
        timeseries_doc=found.get(TIMESERIES),
        trace_records=found.get(TRACE),
        endurance_records=found.get(ENDURANCE),
        experiments=load_experiments(run_dir),
        tolerance=args.tolerance,
    )
    if ENDURANCE in found:
        report.update(wear_tables(found[ENDURANCE], against))
    path = artifact.write_text(run_dir / "report.md",
                               format_report(report) + "\n")
    print(f"report (markdown) -> {path}")
    path = artifact.write_text(run_dir / "report.json",
                               artifact.dumps(report))
    print(f"report (json) -> {path}")
    if report_failed(report):
        print("repro report: one or more claims FAILED",
              file=sys.stderr)
        return EXIT_CLAIM_FAILED
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.obs.timeseries import DEFAULT_CADENCE

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Salamander (HotOS '25) reproduction experiments")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="execute a JSON scenario file (see scenarios/; exit 1 "
                    "when a traffic or probe scenario's SLO is violated)")
    run.add_argument("scenario", help="path to a scenario .json")
    run.add_argument("--out", default="results", metavar="DIR",
                     help="write <name>.json into DIR (default results), "
                          "with whichever of metrics.json, trace.jsonl and "
                          "timeseries.jsonl the run recorded into and a "
                          "probe's reqtrace.jsonl and endurance.jsonl")
    run.add_argument(
        "--jobs", type=int, default=1,
        help="fleet shard, sweep run, traffic cell or probe worker "
             "processes (0 = all cores; the artifacts are byte-identical "
             "for any value)")
    run.add_argument(
        "--timeseries-cadence", type=float, default=DEFAULT_CADENCE,
        metavar="T",
        help="minimum simulated time between timeseries samples "
             f"(default {DEFAULT_CADENCE:g} — a monthly SMART pull on "
             "the fleet's day axis; 0 samples every step)")
    run.add_argument(
        "--faults", default=None, metavar="PATH",
        help="inject faults from a repro.faults/v1 plan JSON "
             "(see docs/FAULTS.md); omit for a fault-free run")
    run.set_defaults(func=_cmd_run)

    report = sub.add_parser(
        "report",
        help="check the paper's claims against run artifacts "
             "(exit 1 when a claim fails)")
    report.add_argument(
        "dir", metavar="DIR",
        help="run directory: reads its <name>.json experiment documents "
             "and whichever of metrics.json, timeseries.jsonl, trace.jsonl "
             "and endurance.jsonl it holds, and writes report.json and "
             "report.md into it (with the wear and forecast tables when "
             "it holds endurance.jsonl)")
    report.add_argument(
        "--against", default=None, metavar="DIR2",
        help="reference run directory: add the per-device wear deltas "
             "of DIR minus DIR2 (both must hold endurance.jsonl)")
    report.add_argument(
        "--tolerance", type=float, default=0.10,
        help="relative tolerance for the claim checks (default 0.10)")
    report.set_defaults(func=_cmd_report)

    return parser


#: Exit code when ``repro report`` finds a failed claim — the artifacts
#: parsed fine but the numbers contradict the paper. Deliberately 1
#: (the generic "check failed" convention) so CI pipelines distinguish
#: a disproved claim from a malformed artifact (2) or a crash (3).
EXIT_CLAIM_FAILED = 1
#: Exit code for configuration/usage errors (bad flag values, broken
#: scenario files) — distinguishable from crashes in scripts and CI.
EXIT_CONFIG_ERROR = 2
#: Exit code for unexpected failures (bugs, environmental problems).
EXIT_UNEXPECTED_ERROR = 3


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    0 on success, :data:`EXIT_CONFIG_ERROR` for configuration errors,
    :data:`EXIT_UNEXPECTED_ERROR` for anything else. ``argparse`` usage
    errors keep argparse's own exit code (2, via SystemExit).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # One run context per command, built from its flags; library
        # callers of main() (and the test suite) see no state change.
        with context.scoped(**_observability(args)):
            return args.func(args)
    except ConfigError as error:
        print(f"repro: configuration error: {error}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except BrokenPipeError:
        # Downstream closed the pipe (`repro report | head`); die
        # quietly like a Unix filter. Redirect stdout at the fd level so
        # the interpreter's exit-time flush can't raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as error:  # noqa: BLE001 - the CLI boundary
        print(f"repro: unexpected error: "
              f"{type(error).__name__}: {error}", file=sys.stderr)
        return EXIT_UNEXPECTED_ERROR


if __name__ == "__main__":
    sys.exit(main())

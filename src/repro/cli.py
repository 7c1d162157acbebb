"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro run SCENARIO.json [--out DIR] [--jobs N]
    python -m repro report [DIR]
    python -m repro wear (report|forecast|diff) DIR [--against DIR2]

``run`` is the one door to the paper's experiments: each is a scenario
kind of :mod:`repro.scenarios`, and ``scenarios/`` ships one file per
experiment (``fleet.json`` and ``fleet_sweep.json`` for Fig. 3a/3b,
``fig2.json``, ``tournament.json``, ``carbon.json``, ``tco.json``,
``measured_upgrade_rates.json``, ``health.json``, ``traffic.json`` and
``traffic_slo.json`` for the traffic engine, and ``probe.json`` and
``slo_default.json`` for the request-traced IO probe). Every command that
writes files writes them into one run directory under fixed names (the
constants below), and every command that reads artifacts reads them from
one; docs/OBSERVABILITY.md ("Where output lands") has the table. See
DESIGN.md for the experiment-to-paper mapping.
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


def _add_jobs_flag(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1,
        help=f"{what} worker processes (0 = all cores; the artifacts are "
             "byte-identical for any value)")


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
    from repro.obs.endurance import load_endurance
    from repro.obs.metrics import validate_metrics_document
    from repro.obs.timeseries import load_timeseries
    from repro.reporting.claims import (
        build_report,
        format_report,
        report_failed,
    )

    loaders = {
        METRICS: lambda path: validate_metrics_document(
            artifact.read_json(path, "metrics artifact")),
        TIMESERIES: load_timeseries,
        TRACE: load_trace_jsonl,
        ENDURANCE: lambda path: load_endurance(path)[1],
    }
    found = {}
    if args.dir is not None:
        run_dir = artifact.run_dir(args.dir)
        found = {name: load(run_dir / name)
                 for name, load in loaders.items()
                 if (run_dir / name).exists()}

    report = build_report(
        metrics_doc=found.get(METRICS),
        timeseries_doc=found.get(TIMESERIES),
        trace_records=found.get(TRACE),
        endurance_records=found.get(ENDURANCE),
        tolerance=args.tolerance,
        queue_depth=args.queue_depth,
    )
    markdown = format_report(report)
    if args.dir is None:
        print(markdown)
    else:
        path = artifact.write_text(run_dir / "report.md", markdown + "\n")
        print(f"report (markdown) -> {path}")
        path = artifact.write_text(run_dir / "report.json",
                                   artifact.dumps(report))
        print(f"report (json) -> {path}")
    if report_failed(report):
        print("repro report: one or more claims FAILED",
              file=sys.stderr)
        return EXIT_CLAIM_FAILED
    return 0


def _cmd_wear(args: argparse.Namespace) -> int:
    from repro.obs import endurance as endurance_mod

    run_dir = artifact.run_dir(args.dir)
    source = str(run_dir / ENDURANCE)
    header, records = endurance_mod.load_endurance(source)
    endurance_mod.validate_endurance_records(records)
    violations: list[str] = []
    document: dict = {"schema": endurance_mod.ENDURANCE_SCHEMA,
                      "action": args.action, "source": source,
                      "meta": header.get("meta", {})}

    if args.action == "report":
        rows = []
        for record in records:
            overhead = {cause: record["program_opages"][cause]
                        for cause in endurance_mod.CAUSES
                        if cause != "host"
                        and record["program_opages"][cause]}
            by_cause = ", ".join(
                f"{cause}={count}" for cause, count in sorted(
                    overhead.items(), key=lambda item: -item[1])) or "-"
            waf = record["waf"]
            rows.append([record["name"],
                         record["program_opages"]["host"],
                         "-" if waf is None else f"{waf:.3f}",
                         f"{record['mean_pec']:.2f}",
                         record["max_pec"], by_cause])
        print(format_table(
            ["device", "host oPages", "WAF", "mean PEC", "max PEC",
             "overhead oPages by cause"],
            rows, title="wear provenance (measured WAF decomposition)"))
        document["devices"] = records
    elif args.action == "forecast":
        forecast_table = endurance_mod.forecast_rows(
            records, pec_limit_l0=args.pec_limit_l0)
        if forecast_table:
            print(format_table(
                ["device", "level", "PEC limit", "mean PEC",
                 "burn (PEC/host oPage)", "ETA (host oPages)"],
                [[row["device"], f"L{row['level']}",
                  f"{row['pec_limit']:.0f}", f"{row['mean_pec']:.2f}",
                  f"{row['slope_pec_per_host_opage']:.3e}",
                  f"{row['eta_host_opages']:.0f}"]
                 for row in forecast_table],
                title="endurance forecast (per tiredness level)"))
        else:
            print("no forecastable devices (a forecast needs >= 2 "
                  "burn-rate snapshots with host progress)")
        document["rows"] = forecast_table
        if args.horizon is not None:
            survival = endurance_mod.fleet_survival(records, args.horizon)
            document["survival"] = survival
            fraction = survival["survival_fraction"]
            print(f"fleet survival @ {args.horizon:g} host oPages: "
                  f"{survival['surviving']}/{survival['forecastable']} "
                  f"forecastable device(s)"
                  + ("" if fraction is None else f" ({fraction:.0%})"))
            if args.check:
                if survival["forecastable"] == 0:
                    violations.append(
                        "no forecastable devices to hold against "
                        "--horizon")
                elif survival["surviving"] < survival["forecastable"]:
                    short = (survival["forecastable"]
                             - survival["surviving"])
                    violations.append(
                        f"{short} device(s) forecast to exhaust before "
                        f"the {args.horizon:g} host-oPage horizon")
    else:  # diff
        if not args.against:
            raise ConfigError("repro wear diff needs --against DIR2 "
                              "(the reference run directory)")
        reference_source = str(artifact.run_dir(args.against) / ENDURANCE)
        _, against = endurance_mod.load_endurance(reference_source)
        endurance_mod.validate_endurance_records(against)
        current = {record["name"]: record for record in records}
        reference = {record["name"]: record for record in against}
        rows = []
        for name in sorted(set(current) | set(reference)):
            ours, theirs = current.get(name), reference.get(name)
            if ours is None or theirs is None:
                where = source if ours is not None else reference_source
                rows.append([name, "-", "-", "-", f"only in {where}"])
                continue
            host_delta = (ours["program_opages"]["host"]
                          - theirs["program_opages"]["host"])
            overhead_delta = {
                cause: (ours["program_opages"][cause]
                        - theirs["program_opages"][cause])
                for cause in endurance_mod.CAUSES if cause != "host"}
            by_cause = ", ".join(
                f"{cause}{delta:+d}" for cause, delta in sorted(
                    overhead_delta.items(),
                    key=lambda item: -abs(item[1])) if delta) or "-"
            waf_delta = ("-" if ours["waf"] is None or theirs["waf"] is None
                         else f"{ours['waf'] - theirs['waf']:+.3f}")
            rows.append([name, f"{host_delta:+d}",
                         f"{ours['mean_pec'] - theirs['mean_pec']:+.2f}",
                         waf_delta, by_cause])
        print(format_table(
            ["device", "host oPages +/-", "mean PEC +/-", "WAF +/-",
             "overhead oPages by cause +/-"],
            rows, title=f"wear diff: {source} vs {reference_source}"))
        document["against"] = reference_source
        document["rows"] = rows

    if args.check and args.waf_budget is not None:
        for record in records:
            waf = record.get("waf")
            if waf is not None and waf > args.waf_budget:
                violations.append(
                    f"{record['name']}: WAF {waf:.3f} exceeds budget "
                    f"{args.waf_budget:g}")
    path = artifact.write_text(run_dir / "wear.json",
                               artifact.dumps(document))
    print(f"wear document (json) -> {path}")
    if violations:
        for violation in violations:
            print(f"repro wear: {violation}", file=sys.stderr)
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
    _add_jobs_flag(run, "fleet shard, sweep run, traffic cell or probe")
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
        "dir", nargs="?", default=None, metavar="DIR",
        help="run directory: reads whichever of metrics.json, "
             "timeseries.jsonl, trace.jsonl and endurance.jsonl it holds "
             "and writes report.json and report.md into it; omit to "
             "print the self-measuring claims only")
    report.add_argument(
        "--tolerance", type=float, default=0.10,
        help="relative tolerance for the claim checks (default 0.10)")
    report.add_argument(
        "--queue-depth", type=int, default=64,
        help="NCQ depth for the measured queueing-latency claim "
             "(default 64; keep it above the expected queue length so "
             "backpressure does not bend the open-loop arrivals)")
    report.set_defaults(func=_cmd_report)

    wear = sub.add_parser(
        "wear",
        help="inspect repro.obs.endurance/v1 wear-provenance artifacts "
             "(--check exits 1 on a violated WAF budget or forecast "
             "horizon)")
    wear.add_argument(
        "action", choices=("report", "forecast", "diff"),
        help="report: per-device WAF decomposition table; forecast: "
             "per-tiredness-level ETA rows plus fleet survival; diff: "
             "compare two artifacts device by device")
    wear.add_argument(
        "dir", metavar="DIR",
        help="run directory holding endurance.jsonl (from `repro run` "
             "of a probe scenario); wear.json is written into it")
    wear.add_argument(
        "--against", default=None, metavar="DIR2",
        help="reference run directory for `diff` (deltas are DIR "
             "minus DIR2)")
    wear.add_argument(
        "--waf-budget", type=float, default=None, metavar="X",
        help="with --check: fail when any device's measured WAF "
             "exceeds this")
    wear.add_argument(
        "--horizon", type=float, default=None, metavar="OPAGES",
        help="forecast: survival horizon in host oPages (with --check: "
             "every forecastable device must clear it)")
    wear.add_argument(
        "--pec-limit-l0", type=float, default=None,
        help="forecast: L0 P/E limit anchoring the per-level ETA rows "
             "(default: each device's own recorded limit)")
    wear.add_argument(
        "--check", action="store_true",
        help="gate mode: exit 1 on any --waf-budget or --horizon "
             "violation (malformed artifacts exit 2 regardless)")
    wear.set_defaults(func=_cmd_wear)

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
        # Downstream closed the pipe (`repro wear report | head`); die
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

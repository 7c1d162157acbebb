"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro fig2 [--pec-limit 3000] [--ecc-family bch|ldpc]
    python -m repro fleet [--devices 48] [--dwpd 2.0] [--years 10] [...]
    python -m repro sweep [--runs 4] [--jobs 4] [--out results/sweep.json]
    python -m repro tournament [--utilization 0.6] [--pec-limit 30]
    python -m repro carbon [--f-op 0.46] [--renewable]
    python -m repro tco [--f-opex 0.14]
    python -m repro replacement [--slots 100] [--age-limit 5]
    python -m repro traffic [--tenants 1000] [--arrival mmpp] [--slo o.json]
    python -m repro report [--metrics m.json] [--timeseries ts.jsonl] [...]
    python -m repro slo --slo objectives.json (--measure | --reqtrace t.jsonl)
    python -m repro wear (report|forecast|diff) --endurance e.jsonl [...]

Each subcommand prints the same tables the benchmark suite regenerates;
see DESIGN.md for the experiment-to-paper mapping.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro import artifact, context
from repro.errors import ConfigError
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.models.carbon import (
    RU_REGENS,
    RU_SHRINKS,
    CarbonParams,
    carbon_savings,
    fig4_configurations,
)
from repro.models.lifetime import tiredness_tradeoff
from repro.models.tco import TCOParams, tco_savings
from repro.models.tco import RU_REGENS as TCO_RU_REGENS
from repro.models.tco import RU_SHRINKS as TCO_RU_SHRINKS
from repro.obs import MetricsRegistry, SimTimeTracer, TimeseriesSampler
from repro.reporting.series import Series
from repro.reporting.tables import format_table, render_bars, render_series
from repro.rng import DEFAULT_SEED


def _version() -> str:
    """Installed distribution version, falling back to the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version
        return version("repro")
    except PackageNotFoundError:
        import repro
        return repro.__version__


def _observability(args: argparse.Namespace) -> dict:
    """The run-context fields the output flags ask for.

    :func:`main` scopes them around the whole command, so every
    experiment object binds them at construction.
    """
    fields = {}
    if getattr(args, "metrics_out", None):
        fields["metrics"] = MetricsRegistry()
    if getattr(args, "trace_out", None):
        fields["tracer"] = SimTimeTracer()
    if getattr(args, "timeseries_out", None):
        fields["timeseries"] = TimeseriesSampler(
            registry=fields.get("metrics"), cadence=args.timeseries_cadence)
    return fields


def _write_observability(args: argparse.Namespace) -> None:
    ctx = context.current()
    if getattr(args, "metrics_out", None):
        ctx.metrics.write_json(args.metrics_out)
        print(f"metrics -> {args.metrics_out}")
    if getattr(args, "trace_out", None):
        ctx.tracer.export_jsonl(args.trace_out)
        print(f"trace -> {args.trace_out}")
    if getattr(args, "timeseries_out", None):
        ctx.timeseries.export(args.timeseries_out)
        print(f"timeseries -> {args.timeseries_out}")


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a repro.obs.metrics/v1 JSON document here")
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a sim-time JSONL trace here")
    parser.add_argument(
        "--timeseries-out", default=None, metavar="PATH",
        help="write a repro.obs.timeseries/v1 trajectory artifact here "
             "(.csv for long-format CSV, anything else for JSONL)")
    from repro.obs.timeseries import DEFAULT_CADENCE
    parser.add_argument(
        "--timeseries-cadence", type=float, default=DEFAULT_CADENCE,
        metavar="T",
        help="minimum simulated time between timeseries samples "
             f"(default {DEFAULT_CADENCE:g} — a monthly SMART pull on "
             "the fleet's day axis; 0 samples every step)")


def _add_faults_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", default=None, metavar="PATH",
        help="inject faults from a repro.faults/v1 plan JSON "
             "(see docs/FAULTS.md); omit for a fault-free run")


def _add_reqtrace_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--reqtrace-out", default=None, metavar="PATH",
        help="run an instrumented IO probe over the selected device "
             "modes and write its repro.obs.reqtrace/v1 JSONL here "
             "(see docs/OBSERVABILITY.md)")
    parser.add_argument(
        "--slo", default=None, metavar="PATH",
        help="evaluate a repro.obs.slo/v1 objectives config over the "
             "probe's request records; the report is printed (use "
             "`repro slo` for an exit-code gate)")
    parser.add_argument(
        "--endurance-out", default=None, metavar="PATH",
        help="also write the probe's wear-ledger records as a "
             "repro.obs.endurance/v1 JSONL here (consumed by "
             "`repro wear` and `repro report --endurance`)")


def _evaluate_by_device(records: list, objectives: list) -> dict:
    """Evaluate objectives per ``device_kind`` group; merge the rows.

    Each mode's probe (and each device in a fleet) runs on its own
    simulated clock, so windowed evaluation must not interleave
    ``end_us`` values across kinds. Rows are prefixed ``kind/name``
    and the merged ``ok`` is the conjunction of every group's.
    """
    from repro.obs import slo as slo_mod

    groups: dict[str, list] = {}
    for record in records:
        groups.setdefault(str(record.get("device_kind", "")),
                          []).append(record)
    if not groups:
        return slo_mod.evaluate_records([], objectives)
    rows: list[dict] = []
    ok = True
    for kind in sorted(groups):
        report = slo_mod.evaluate_records(groups[kind], objectives)
        ok = ok and report["ok"]
        for row in report["objectives"]:
            row = dict(row)
            if kind:
                row["name"] = f"{kind}/{row['name']}"
            rows.append(row)
    return {"schema": slo_mod.SLO_REPORT_SCHEMA,
            "objective_count": len(rows), "ok": ok, "objectives": rows}


def _run_probe_sidecar(args: argparse.Namespace,
                       modes: Sequence[str] | None = None) -> None:
    """Serve ``--reqtrace-out`` / ``--slo`` / ``--endurance-out``.

    Drives the deterministic IO probe (:mod:`repro.io.probe`) for the
    command's device modes as a measurement sidecar — fleet/scenario
    simulations step device *state*, not per-request timing, so the
    request-level and wear-provenance artifacts come from the probe's
    queue-driven workload under the same seed. One probe run serves
    every requested artifact. Must run *before*
    :func:`_write_observability` so the published ``repro_wear_*``
    families land in the metrics document.
    """
    if not (getattr(args, "reqtrace_out", None)
            or getattr(args, "slo", None)
            or getattr(args, "endurance_out", None)):
        return
    from repro.io.probe import (
        PROBE_MODES,
        ProbeConfig,
        merged_endurance,
        merged_records,
        run_probes,
    )
    from repro.obs import reqtrace as reqtrace_mod
    from repro.obs import slo as slo_mod

    seed = int(getattr(args, "seed", DEFAULT_SEED))
    probe_modes = tuple(m for m in (modes or ()) if m in PROBE_MODES) \
        or PROBE_MODES
    config = ProbeConfig()
    results = run_probes(probe_modes, seed=seed, config=config)
    records = merged_records(results)
    if args.reqtrace_out:
        path = reqtrace_mod.write_reqtrace(
            args.reqtrace_out, records,
            meta={"seed": seed, "every": config.every,
                  "modes": list(probe_modes),
                  "sampled": sum(r["meta"]["sampled"] for r in results),
                  "dropped": sum(r["meta"]["dropped"] for r in results)})
        print(f"reqtrace -> {path}")
    if getattr(args, "endurance_out", None):
        from repro.obs import endurance as endurance_mod

        wear_records = merged_endurance(results)
        path = endurance_mod.write_endurance(
            args.endurance_out, wear_records,
            meta={"seed": seed, "modes": list(probe_modes),
                  "pec_limit": config.pec_limit,
                  "devices": len(wear_records),
                  "snapshot_every": endurance_mod.DEFAULT_SNAPSHOT_EVERY,
                  "causes": list(endurance_mod.CAUSES)})
        if getattr(args, "metrics_out", None):
            endurance_mod.publish_wear_metrics(wear_records)
        print(f"endurance -> {path}")
    if args.slo:
        objectives = slo_mod.load_slo_config(args.slo)
        report = _evaluate_by_device(records, objectives)
        print(slo_mod.format_slo_report(report))


def _load_fault_plan(args: argparse.Namespace):
    """Load the ``--faults`` plan, or None when the flag was not given."""
    if not getattr(args, "faults", None):
        return None
    from repro.faults import FaultPlan
    return FaultPlan.load(args.faults)


def _cmd_fig2(args: argparse.Namespace) -> int:
    policy = TirednessPolicy(ecc_family=args.ecc_family)
    model = calibrate_power_law(policy, pec_limit_l0=args.pec_limit)
    points = tiredness_tradeoff(policy, model)
    rows = [[f"L{p.level}", f"{p.capacity_fraction:.2f}",
             f"{p.code_rate:.3f}", f"{p.max_rber:.3e}",
             f"{p.pec_limit:.0f}", f"{p.pec_gain:+.0%}"]
            for p in points]
    print(format_table(
        ["level", "capacity", "code rate", "max RBER", "PEC limit", "gain"],
        rows, title=f"Fig. 2 ({args.ecc_family.upper()}, "
                    f"rated {args.pec_limit:.0f} cycles)"))
    return 0


def _jobs_arg(value: str):
    """``--jobs`` argparse type: an int worker count or literal 'auto'."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}")


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.sim.fleet import MODES, FleetConfig
    from repro.sim.parallel import resolve_jobs
    from repro.sim.shard import simulate_fleet_sharded

    config = FleetConfig(
        devices=args.devices,
        geometry=FlashGeometry(blocks=args.blocks, fpages_per_block=64),
        dwpd=args.dwpd, afr=args.afr,
        horizon_days=int(args.years * 365), step_days=args.step_days,
        shards=args.shards)
    modes = MODES if args.mode == "all" else (args.mode,)
    plan = _load_fault_plan(args)
    jobs = resolve_jobs(args.jobs)
    # Passing the *plan* (not an injector) gives every mode its own
    # fresh fault counters — the schedule applies per run, not jointly.
    results = {mode: simulate_fleet_sharded(config, mode, seed=args.seed,
                                            faults=plan, jobs=jobs)
               for mode in modes}
    print(render_series(
        [Series(mode, r.days / 365.0, r.functioning, x_label="years")
         for mode, r in results.items()],
        points=args.points, title="functioning devices (Fig. 3a)"))
    print()
    print(render_series(
        [Series(mode, r.days / 365.0,
                r.capacity_bytes / max(r.initial_capacity_bytes, 1),
                x_label="years") for mode, r in results.items()],
        points=args.points, title="capacity fraction (Fig. 3b)"))
    print()
    rows = [[mode, f"{r.mean_lifetime_days():.0f}"]
            for mode, r in results.items()]
    print(format_table(["mode", "mean lifetime (days)"], rows))
    if args.out is not None:
        from repro.sim.parallel import sweep_document, write_sweep_artifact

        document = sweep_document(
            config, modes, [args.seed],
            {(mode, args.seed): r for mode, r in results.items()},
            faults=plan)
        path = write_sweep_artifact(document, args.out)
        print(f"fleet artifact -> {path}")
    _run_probe_sidecar(args, modes)
    _write_observability(args)
    return 0


def _cmd_tournament(args: argparse.Namespace) -> int:
    from repro.sim.lifetime import run_write_lifetime, tournament_devices

    devices = tournament_devices(blocks=args.blocks,
                                 pec_limit=args.pec_limit, seed=args.seed)
    rows = []
    base = None
    for name, device in devices.items():
        result = run_write_lifetime(device, utilization=args.utilization,
                                    capacity_floor_fraction=0.3, seed=0)
        if base is None:
            base = result.host_writes
        rows.append([name, result.host_writes,
                     f"{result.host_writes / base:.2f}x",
                     f"{result.mean_pec_at_death:.1f}",
                     result.death_cause])
    print(format_table(
        ["device", "host writes", "vs baseline", "mean PEC at death",
         "end cause"],
        rows, title=f"lifetime tournament @ {args.utilization:.0%} "
                    f"utilisation"))
    return 0


def _cmd_carbon(args: argparse.Namespace) -> int:
    if args.ru is not None:
        params = CarbonParams(f_op=args.f_op, upgrade_rate=args.ru,
                              renewable_operational=args.renewable)
        print(f"CO2e savings (Eq. 3): {carbon_savings(params):+.1%}")
        return 0
    bars = fig4_configurations(f_op=args.f_op)
    print(render_bars({k: v * 100 for k, v in bars.items()},
                      title="Fig. 4: CO2e savings", unit="%"))
    return 0


def _cmd_tco(args: argparse.Namespace) -> int:
    rows = []
    for mode, ru in (("shrinks", TCO_RU_SHRINKS), ("regens", TCO_RU_REGENS)):
        params = TCOParams(f_opex=args.f_opex, upgrade_rate=ru)
        rows.append([mode, f"{tco_savings(params):+.1%}"])
    print(format_table(["mode", "TCO savings"], rows,
                       title=f"Eq. 4 @ f_opex = {args.f_opex}"))
    return 0


def _cmd_replacement(args: argparse.Namespace) -> int:
    from repro.sim.fleet import FleetConfig
    from repro.sim.replacement import (
        ReplacementConfig,
        measured_upgrade_rates,
    )

    config = ReplacementConfig(
        fleet=FleetConfig(
            devices=32,
            geometry=FlashGeometry(blocks=64, fpages_per_block=32),
            dwpd=args.dwpd, afr=0.01, step_days=10),
        slots=args.slots, horizon_years=args.years,
        age_limit_years=args.age_limit)
    results = measured_upgrade_rates(config, seed=args.seed)
    base = results["baseline"].purchases
    rows = [[mode, r.purchases, f"{r.purchases / base:.2f}",
             f"{r.mean_service_life_days:.0f}",
             f"{r.preempted_fraction:.0%}"]
            for mode, r in results.items()]
    print(format_table(
        ["mode", "purchases", "measured Ru", "mean life (d)", "preempted"],
        rows, title=f"replacement over {args.years:.0f} years, "
                    f"age limit {args.age_limit}"))
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.health.policy import (
        evaluate_fixed_age,
        evaluate_predictive,
        evaluate_run_to_failure,
    )
    from repro.health.predictor import FailurePredictor, evaluate_predictor
    from repro.health.telemetry import TelemetryConfig, generate_trajectories

    config = TelemetryConfig(
        devices=args.devices,
        geometry=FlashGeometry(blocks=128, fpages_per_block=32),
        dwpd=args.dwpd, sample_days=30, max_days=args.max_days)
    train = generate_trajectories(config, seed=args.seed)
    test = generate_trajectories(config, seed=args.seed + 1)
    predictor = FailurePredictor(horizon_days=args.horizon).fit(train)
    report = evaluate_predictor(predictor, test)
    print(f"predictor: precision {report.precision:.2f}, "
          f"recall {report.recall:.2f} (base rate {report.base_rate:.1%})")
    deaths = [t.death_day for t in test if np.isfinite(t.death_day)]
    median_life = float(np.median(deaths)) if deaths else args.max_days
    outcomes = [
        evaluate_run_to_failure(test),
        evaluate_fixed_age(test, median_life * 0.6),
        evaluate_predictive(test, predictor),
    ]
    rows = [[o.policy, f"{o.mean_service_days:.0f}",
             f"{o.unexpected_failure_rate:.0%}",
             f"{o.wasted_life_fraction:.0%}"] for o in outcomes]
    print(format_table(
        ["policy", "mean service (d)", "unexpected", "wasted life"],
        rows, title="replacement policies (§2.1)"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sim.fleet import MODES, FleetConfig
    from repro.sim.parallel import (
        derive_seeds,
        resolve_jobs,
        run_fleet_grid,
        summarize_sweep,
        sweep_document,
        write_sweep_artifact,
    )

    config = FleetConfig(
        devices=args.devices,
        geometry=FlashGeometry(blocks=args.blocks, fpages_per_block=64),
        dwpd=args.dwpd, afr=args.afr,
        horizon_days=int(args.years * 365), step_days=args.step_days)
    modes = MODES if args.mode == "all" else (args.mode,)
    seeds = derive_seeds(args.seed, args.runs)
    jobs = resolve_jobs(args.jobs)
    plan = _load_fault_plan(args)
    results = run_fleet_grid(config, modes=modes, seeds=seeds, jobs=jobs,
                             faults=plan)
    document = sweep_document(config, modes, seeds, results, faults=plan)
    if args.jobs == "auto":
        # Record the *resolved* worker count, never the literal string —
        # explicit --jobs values stay out of the document entirely, so
        # the jobs-invariance byte-identity gates keep holding.
        document["meta"] = {"jobs": jobs}
    path = write_sweep_artifact(document, args.out)
    rows = [[row["mode"], row["runs"],
             f"{row['mean_lifetime_days']:.0f}",
             f"{row['mean_survivors_at_horizon']:.1f}",
             f"{row['mean_recovery_bytes']:.3e}"]
            for row in summarize_sweep(document)]
    print(format_table(
        ["mode", "runs", "mean lifetime (d)", "survivors @ horizon",
         "recovery (bytes)"],
        rows, title=f"fleet sweep: {args.runs} seed(s) x "
                    f"{len(modes)} mode(s), {jobs} job(s)"))
    print(f"sweep artifact -> {path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.scenarios import load_scenario, run_scenario

    document = load_scenario(args.scenario)
    plan = _load_fault_plan(args)
    if plan is not None:
        # The CLI flag overrides any plan embedded in the scenario file.
        document = dict(document)
        document["faults"] = plan.to_dict()
    writer = run_scenario(document)
    if args.metrics_out:
        writer.attach_metrics(context.current().metrics)
    if args.timeseries_out:
        writer.attach_timeseries(context.current().timeseries)
    path = writer.write(args.out)
    _run_probe_sidecar(args)
    _write_observability(args)
    print(f"scenario {document['name']!r} ({document['kind']}) -> {path}")
    for name, table in writer.document()["tables"].items():
        print(format_table(table["headers"], table["rows"], title=name))
    return 0


def _cmd_traffic(args: argparse.Namespace) -> int:
    from repro.obs import slo as slo_mod
    from repro.sim.parallel import resolve_jobs
    from repro.workloads.engine import (
        EngineConfig,
        publish_traffic_metrics,
        run_traffic,
        write_engine_artifact,
    )
    from repro.workloads.traces import Trace

    # Parsed here so that a bad file fails at the door, path named, not
    # inside a worker; the cells re-read the canonical text.
    trace_text = Trace.load(args.trace).dumps() if args.trace else None
    objectives = (slo_mod.load_slo_config(args.slo)
                  if args.slo else None)
    config = EngineConfig(
        tenants=args.tenants,
        duration_us=args.duration,
        arrival=args.arrival,
        utilisation=args.utilisation,
        burstiness=args.burstiness,
        mode=args.mode,
        level=args.level,
        cells=args.cells,
        shards=args.shards,
        read_fraction=args.read_fraction,
        read_span=args.read_span,
        closed_loop_fraction=args.closed_loop,
        think_us=args.think,
        admission=args.admission,
        trace_text=trace_text,
    )
    jobs = resolve_jobs(args.jobs)
    document = run_traffic(config, seed=args.seed, jobs=jobs,
                           objectives=objectives)
    if args.jobs == "auto":
        # Resolved int, never the literal string (see _cmd_sweep).
        document["meta"] = {"jobs": jobs}
    publish_traffic_metrics(document)
    path = write_engine_artifact(document, args.out)
    _write_observability(args)

    totals = document["totals"]
    rows = [[klass, "-" if p99 is None else f"{p99:.1f}"]
            for klass, p99 in sorted(
                document["median_p99_by_class_us"].items())]
    print(format_table(
        ["tenant class", "median p99 (us)"], rows,
        title=f"traffic: {args.tenants} tenant(s) x "
              f"{config.cell_count} cell(s), {jobs} job(s)"))
    print(f"offered {totals['offered']}  admitted {totals['admitted']}  "
          f"shed {totals['shed']}  deferrals {totals['deferrals']}  "
          f"completed {totals['completed']}  "
          f"deadline misses {totals['deadline_misses']}")
    print(f"traffic artifact -> {path}")
    if objectives:
        for cell_report in document["slo"]["cells"]:
            if cell_report is not None:
                print(slo_mod.format_slo_report(cell_report))
        if not document["slo"]["ok"]:
            print("repro traffic: one or more SLOs VIOLATED",
                  file=sys.stderr)
            return EXIT_CLAIM_FAILED
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.analyze import load_trace_jsonl
    from repro.obs.metrics import validate_metrics_document
    from repro.obs.timeseries import load_timeseries
    from repro.reporting.claims import (
        build_report,
        format_report,
        report_failed,
    )
    from repro.reporting.export import load_experiment

    metrics_doc = (validate_metrics_document(
        artifact.read_json(args.metrics, "metrics artifact"))
        if args.metrics else None)
    timeseries_doc = (load_timeseries(args.timeseries)
                      if args.timeseries else None)
    trace_records = (load_trace_jsonl(args.trace)
                     if args.trace else None)
    artifact_doc = (load_experiment(args.artifact)
                    if args.artifact else None)
    endurance_records = None
    if args.endurance:
        from repro.obs.endurance import load_endurance
        _, endurance_records = load_endurance(args.endurance)

    report = build_report(
        metrics_doc=metrics_doc,
        timeseries_doc=timeseries_doc,
        trace_records=trace_records,
        artifact_doc=artifact_doc,
        endurance_records=endurance_records,
        tolerance=args.tolerance,
        queue_depth=args.queue_depth,
    )
    markdown = format_report(report)
    if args.markdown:
        path = artifact.write_text(args.markdown, markdown + "\n")
        print(f"report (markdown) -> {path}")
    if args.json:
        path = artifact.write_text(args.json, artifact.dumps(report))
        print(f"report (json) -> {path}")
    if not args.markdown and not args.json:
        print(markdown)
    if report_failed(report):
        print("repro report: one or more claims FAILED",
              file=sys.stderr)
        return EXIT_CLAIM_FAILED
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.obs import reqtrace as reqtrace_mod
    from repro.obs import slo as slo_mod
    from repro.obs.analyze import analyze_trace, format_trace_summary

    objectives = slo_mod.load_slo_config(args.slo)
    if bool(args.reqtrace) == bool(args.measure):
        raise ConfigError(
            "repro slo needs exactly one input: --reqtrace PATH "
            "(evaluate an existing artifact) or --measure "
            "(drive the instrumented IO probe)")
    if args.reqtrace:
        _, records = reqtrace_mod.load_reqtrace(args.reqtrace)
        reqtrace_mod.validate_reqtrace_records(records)
    else:
        from repro.io.probe import (
            PROBE_MODES,
            merged_records,
            probe_config_from_args,
            run_probes,
        )
        from repro.sim.parallel import resolve_jobs

        modes = PROBE_MODES if args.mode == "all" else (args.mode,)
        config = probe_config_from_args(every=args.every,
                                        n_requests=args.requests)
        results = run_probes(modes, seed=args.seed, config=config,
                             jobs=resolve_jobs(args.jobs))
        records = merged_records(results)
        if args.reqtrace_out:
            path = reqtrace_mod.write_reqtrace(
                args.reqtrace_out, records,
                meta={"seed": args.seed, "every": config.every,
                      "modes": list(modes),
                      "sampled": sum(r["meta"]["sampled"]
                                     for r in results),
                      "dropped": sum(r["meta"]["dropped"]
                                     for r in results)})
            print(f"reqtrace -> {path}")
    report = _evaluate_by_device(records, objectives)
    if args.json:
        path = artifact.write_text(args.json, artifact.dumps(report))
        print(f"slo report (json) -> {path}")
    print(slo_mod.format_slo_report(report))
    summary = analyze_trace(records)
    if any(cohort.get("count")
           for cohort in summary.get("segments", {}).values()):
        print(format_trace_summary(summary))
    if slo_mod.slo_failed(report):
        print("repro slo: one or more objectives VIOLATED",
              file=sys.stderr)
        return EXIT_CLAIM_FAILED
    return 0


def _cmd_wear(args: argparse.Namespace) -> int:
    from repro.obs import endurance as endurance_mod

    header, records = endurance_mod.load_endurance(args.endurance)
    endurance_mod.validate_endurance_records(records)
    violations: list[str] = []
    document: dict = {"schema": endurance_mod.ENDURANCE_SCHEMA,
                      "action": args.action, "source": args.endurance,
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
            raise ConfigError("repro wear diff needs --against PATH "
                              "(the reference artifact)")
        _, against = endurance_mod.load_endurance(args.against)
        endurance_mod.validate_endurance_records(against)
        current = {record["name"]: record for record in records}
        reference = {record["name"]: record for record in against}
        rows = []
        for name in sorted(set(current) | set(reference)):
            ours, theirs = current.get(name), reference.get(name)
            if ours is None or theirs is None:
                where = args.endurance if ours is not None else args.against
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
            rows, title=f"wear diff: {args.endurance} vs {args.against}"))
        document["against"] = args.against
        document["rows"] = rows

    if args.check and args.waf_budget is not None:
        for record in records:
            waf = record.get("waf")
            if waf is not None and waf > args.waf_budget:
                violations.append(
                    f"{record['name']}: WAF {waf:.3f} exceeds budget "
                    f"{args.waf_budget:g}")
    if args.json:
        path = artifact.write_text(args.json, artifact.dumps(document))
        print(f"wear document (json) -> {path}")
    if violations:
        for violation in violations:
            print(f"repro wear: {violation}", file=sys.stderr)
        return EXIT_CLAIM_FAILED
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Salamander (HotOS '25) reproduction experiments")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    fig2 = sub.add_parser("fig2", help="tiredness-level trade-off (Fig. 2)")
    fig2.add_argument("--pec-limit", type=float, default=3000.0)
    fig2.add_argument("--ecc-family", choices=("bch", "ldpc"), default="bch")
    fig2.set_defaults(func=_cmd_fig2)

    fleet = sub.add_parser("fleet", help="fleet curves (Fig. 3a/3b)")
    fleet.add_argument("--devices", type=int, default=48)
    fleet.add_argument("--blocks", type=int, default=128)
    fleet.add_argument("--dwpd", type=float, default=2.0)
    fleet.add_argument("--afr", type=float, default=0.01)
    fleet.add_argument("--years", type=float, default=10.0)
    fleet.add_argument("--step-days", type=int, default=10)
    fleet.add_argument("--points", type=int, default=12)
    fleet.add_argument("--mode", default="all",
                       choices=("all", "baseline", "cvss", "shrink", "regen"))
    fleet.add_argument("--seed", type=int, default=2025)
    fleet.add_argument(
        "--shards", type=int, default=1,
        help="failure-domain shards for the process-parallel runner "
             "(1 = the whole fleet walked in this process; see "
             "docs/SHARDING.md)")
    fleet.add_argument(
        "--jobs", type=int, default=1,
        help="shard worker processes (0 = all cores; results are "
             "identical for any value at a fixed --shards)")
    fleet.add_argument(
        "--out", default=None,
        help="optionally write a repro.sweep/v1 artifact (byte-stable; "
             "the determinism gates cmp it)")
    _add_observability_flags(fleet)
    _add_faults_flag(fleet)
    _add_reqtrace_flags(fleet)
    fleet.set_defaults(func=_cmd_fleet)

    tournament = sub.add_parser(
        "tournament", help="functional lifetime tournament")
    tournament.add_argument("--utilization", type=float, default=0.6)
    tournament.add_argument("--pec-limit", type=float, default=30.0)
    tournament.add_argument("--blocks", type=int, default=32)
    tournament.add_argument("--seed", type=int, default=1)
    tournament.set_defaults(func=_cmd_tournament)

    carbon = sub.add_parser("carbon", help="Eq. 3 / Fig. 4 carbon model")
    carbon.add_argument("--f-op", type=float, default=0.46)
    carbon.add_argument("--ru", type=float, default=None,
                        help="evaluate one upgrade rate instead of Fig. 4")
    carbon.add_argument("--renewable", action="store_true")
    carbon.set_defaults(func=_cmd_carbon)

    tco = sub.add_parser("tco", help="Eq. 4 cost model")
    tco.add_argument("--f-opex", type=float, default=0.14)
    tco.set_defaults(func=_cmd_tco)

    replacement = sub.add_parser(
        "replacement", help="measured upgrade rates (EXT-RU)")
    replacement.add_argument("--slots", type=int, default=100)
    replacement.add_argument("--years", type=float, default=15.0)
    replacement.add_argument("--age-limit", type=float, default=5.0)
    replacement.add_argument("--dwpd", type=float, default=0.7)
    replacement.add_argument("--seed", type=int, default=9)
    replacement.set_defaults(func=_cmd_replacement)

    health = sub.add_parser(
        "health", help="failure prediction and retirement policies (§2.1)")
    health.add_argument("--devices", type=int, default=150)
    health.add_argument("--dwpd", type=float, default=1.5)
    health.add_argument("--horizon", type=float, default=90.0)
    health.add_argument("--max-days", type=int, default=5000)
    health.add_argument("--seed", type=int, default=1)
    health.set_defaults(func=_cmd_health)

    sweep = sub.add_parser(
        "sweep",
        help="multi-seed fleet sweep with a process-parallel runner; "
             "artifacts are bit-identical for any --jobs value")
    sweep.add_argument("--devices", type=int, default=48)
    sweep.add_argument("--blocks", type=int, default=128)
    sweep.add_argument("--dwpd", type=float, default=2.0)
    sweep.add_argument("--afr", type=float, default=0.01)
    sweep.add_argument("--years", type=float, default=10.0)
    sweep.add_argument("--step-days", type=int, default=10)
    sweep.add_argument("--mode", default="all",
                       choices=("all", "baseline", "cvss", "shrink", "regen"))
    sweep.add_argument("--seed", type=int, default=2025,
                       help="root seed; per-run seeds are derived from it "
                            "deterministically (jobs-invariant)")
    sweep.add_argument("--runs", type=int, default=4,
                       help="independent seed replicates per mode")
    sweep.add_argument("--jobs", type=_jobs_arg, default=1,
                       help="worker processes (0 = all cores, 'auto' = all "
                            "cores but one; results are identical for any "
                            "value)")
    sweep.add_argument("--out", default="results/sweep.json",
                       help="repro.sweep/v1 artifact path")
    _add_faults_flag(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    run = sub.add_parser(
        "run", help="execute a JSON scenario file (see scenarios/)")
    run.add_argument("scenario", help="path to a scenario .json")
    run.add_argument("--out", default="results",
                     help="artifact output directory")
    _add_observability_flags(run)
    _add_faults_flag(run)
    _add_reqtrace_flags(run)
    run.set_defaults(func=_cmd_run)

    traffic = sub.add_parser(
        "traffic",
        help="deterministic open-loop multi-tenant traffic engine "
             "(artifacts are byte-identical for any --jobs; exit 1 "
             "when an attached SLO is violated)")
    traffic.add_argument(
        "--tenants", type=int, default=64,
        help="tenant streams across all cells (default 64)")
    traffic.add_argument(
        "--duration", type=float, default=30000.0, metavar="US",
        help="simulated arrival window per cell in device-time "
             "microseconds (default 30000)")
    traffic.add_argument(
        "--arrival", default="poisson", choices=("poisson", "mmpp"),
        help="per-tenant arrival process (mmpp = bursty 2-state)")
    traffic.add_argument(
        "--utilisation", type=float, default=0.6,
        help="target offered load per cell as a fraction of the "
             "measured service capacity (>1 deliberately saturates)")
    traffic.add_argument(
        "--burstiness", type=float, default=4.0,
        help="mmpp burst-to-quiet rate ratio (default 4)")
    traffic.add_argument(
        "--mode", default="flat",
        choices=("flat", "baseline", "cvss", "shrink", "regen"),
        help="device flavour each cell drives (default flat: a "
             "uniform-level deterministic device; see --level)")
    traffic.add_argument(
        "--level", type=int, default=0, choices=(0, 1, 2, 3),
        help="RegenS tiredness level of the flat device (default 0)")
    traffic.add_argument(
        "--cells", type=int, default=0,
        help="independent device cells (0 = auto from tenant count)")
    traffic.add_argument(
        "--shards", type=int, default=0,
        help="minimum failure-domain cell count for the fork pool "
             "(0 = leave the auto tiers alone; part of the config, so "
             "it changes the artifact — unlike --jobs)")
    traffic.add_argument(
        "--read-fraction", type=float, default=0.0,
        help="flip this fraction of generated writes to reads")
    traffic.add_argument(
        "--read-span", type=int, default=1, metavar="LBAS",
        help="LBAs per read request (4 = fPage-wide scan reads that "
             "inherit the RegenS per-byte degradation)")
    traffic.add_argument(
        "--closed-loop", type=float, default=0.0, metavar="FRAC",
        help="fraction of tenants that are closed-loop (self-clocked, "
             "never shed)")
    traffic.add_argument(
        "--think", type=float, default=0.0, metavar="US",
        help="closed-loop think time between completions")
    traffic.add_argument(
        "--admission", default="defer",
        choices=("none", "shed", "defer"),
        help="admission control for open-loop tenants when the token "
             "bucket or backlog watermark trips (default defer)")
    traffic.add_argument(
        "--trace", default=None, metavar="PATH",
        help="replay a repro.workloads trace file cyclically instead "
             "of synthetic generators")
    traffic.add_argument(
        "--slo", default=None, metavar="PATH",
        help="attach a repro.obs.slo/v1 objectives config; per-tenant "
             "streams feed the evaluation and a violation exits 1")
    traffic.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="root seed; every cell and tenant derives from it "
             "deterministically (jobs-invariant)")
    traffic.add_argument(
        "--jobs", type=_jobs_arg, default=1,
        help="cell worker processes (0 = all cores, 'auto' = all cores "
             "but one; the artifact is byte-identical for any value)")
    traffic.add_argument(
        "--out", default="results/traffic.json",
        help="repro.workloads.engine/v1 artifact path")
    _add_observability_flags(traffic)
    traffic.set_defaults(func=_cmd_traffic)

    report = sub.add_parser(
        "report",
        help="check the paper's claims against run artifacts "
             "(exit 1 when a claim fails)")
    report.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="repro.obs.metrics/v1 JSON (from --metrics-out)")
    report.add_argument(
        "--timeseries", default=None, metavar="PATH",
        help="repro.obs.timeseries/v1 JSONL or CSV "
             "(from --timeseries-out)")
    report.add_argument(
        "--trace", default=None, metavar="PATH",
        help="sim-time trace JSONL (from --trace-out); adds a trace "
             "summary to the report")
    report.add_argument(
        "--artifact", default=None, metavar="PATH",
        help="scenario artifact JSON (from `repro run`); supplies "
             "lifetime/capacity inputs and any embedded timeseries")
    report.add_argument(
        "--endurance", default=None, metavar="PATH",
        help="repro.obs.endurance/v1 JSONL (from --endurance-out); "
             "enables the wear-provenance claims")
    report.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the repro.report/v1 JSON document here")
    report.add_argument(
        "--markdown", default=None, metavar="PATH",
        help="write the markdown report here (default: print it)")
    report.add_argument(
        "--tolerance", type=float, default=0.10,
        help="relative tolerance for the claim checks (default 0.10)")
    report.add_argument(
        "--queue-depth", type=int, default=64,
        help="NCQ depth for the measured queueing-latency claim "
             "(default 64; keep it above the expected queue length so "
             "backpressure does not bend the open-loop arrivals)")
    report.set_defaults(func=_cmd_report)

    slo = sub.add_parser(
        "slo",
        help="evaluate latency/deadline SLOs over reqtrace records "
             "(exit 1 when an objective is violated)")
    slo.add_argument(
        "--slo", required=True, metavar="PATH",
        help="repro.obs.slo/v1 objectives config (see "
             "docs/OBSERVABILITY.md; scenarios/slo_default.json ships "
             "a permissive example)")
    slo.add_argument(
        "--reqtrace", default=None, metavar="PATH",
        help="evaluate an existing repro.obs.reqtrace/v1 artifact "
             "(from --reqtrace-out) instead of measuring")
    slo.add_argument(
        "--measure", action="store_true",
        help="drive the instrumented IO probe and evaluate its "
             "records (mutually exclusive with --reqtrace)")
    slo.add_argument(
        "--mode", default="all",
        choices=("all", "baseline", "cvss", "shrink", "regen"),
        help="device mode(s) to probe under --measure")
    slo.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="probe seed; records are a pure function of "
             "(mode, seed, config) and identical for any --jobs")
    slo.add_argument(
        "--jobs", type=int, default=1,
        help="probe one mode per worker process (0 = all cores)")
    slo.add_argument(
        "--every", type=int, default=None, metavar="N",
        help="sample 1 request in N (default: the probe's 16)")
    slo.add_argument(
        "--requests", type=int, default=None, metavar="N",
        help="measured requests per mode (default: the probe's 400)")
    slo.add_argument(
        "--reqtrace-out", default=None, metavar="PATH",
        help="also write the measured repro.obs.reqtrace/v1 JSONL")
    slo.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the repro.obs.slo_report/v1 JSON document here")
    slo.set_defaults(func=_cmd_slo)

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
        "--endurance", required=True, metavar="PATH",
        help="repro.obs.endurance/v1 JSONL (from --endurance-out)")
    wear.add_argument(
        "--against", default=None, metavar="PATH",
        help="reference artifact for `diff` (deltas are "
             "--endurance minus --against)")
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
    wear.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the computed document as JSON here")
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

"""Declarative experiments: JSON scenario files -> JSON artifacts.

A *scenario* is a small JSON document describing one experiment —
which simulator to run and with what parameters — so that studies are
shareable and re-runnable without writing Python:

.. code-block:: json

    {
      "name": "heavy-write-fleet",
      "kind": "fleet",
      "seed": 42,
      "params": {"devices": 32, "dwpd": 3.0, "horizon_days": 2000},
      "modes": ["baseline", "regen"]
    }

``run_scenario`` validates the document, builds its kind's config once,
dispatches on ``kind`` (``fleet``, ``tournament``, ``carbon``, ``tco``,
``replacement``, ``fig2``, ``health``, ``traffic``, ``probe``,
``agreement``) and returns an
:class:`~repro.reporting.export.ExperimentWriter` holding structured
tables/series (and any file the kind writes beside them), ready to
``write()`` into a run directory. The CLI exposes this as
``python -m repro run <scenario.json> [--out results/] [--jobs N]``, the
only way to run these experiments from a shell; ``scenarios/`` ships one
file per kind at the paper's settings.

A ``fleet`` scenario walks each mode through the sharded runner
(``params.shards`` shards, ``jobs`` workers); with ``"runs": N`` it is a
multi-seed sweep instead (``N`` seeds derived from ``seed``, the
(mode, seed) grid fanned over ``jobs`` workers). A ``traffic`` scenario
runs the multi-tenant traffic engine over ``jobs`` cell workers; its
``params`` are :class:`~repro.workloads.engine.EngineConfig` fields plus
``trace`` (a replay file path), and a top-level ``"slo"``
(``repro.obs.slo/v1``) attaches objectives to its tenant streams. A
``probe`` scenario drives the request-traced IO probe
(:mod:`repro.io.probe`) once per mode over ``jobs`` workers (``params``
``every`` and ``requests``) and writes :data:`REQTRACE` and
:data:`ENDURANCE` beside its artifact; its ``"slo"`` is evaluated per
device kind over the sampled requests. An ``agreement`` scenario (no
``params``, no ``seed``) writes the §4.2 measurements ``repro report``
reads (:func:`repro.io.probe.agreement_tables`). Every kind's artifact
is byte-identical for any ``jobs``.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from pathlib import Path

from repro import artifact, context
from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultPlan
from repro.obs.slo import validate_slo_document
from repro.reporting.export import ExperimentWriter
from repro.reporting.series import Series

SCENARIO_KINDS = ("fleet", "tournament", "carbon", "tco", "replacement",
                  "fig2", "health", "traffic", "probe", "agreement")

#: The files a ``probe`` scenario writes into the run directory beside
#: ``<name>.json``: its sampled request records and its wear ledger.
REQTRACE = "reqtrace.jsonl"
ENDURANCE = "endurance.jsonl"


def load_scenario(path: str | Path) -> dict:
    """Read a scenario document; :func:`run_scenario` validates it."""
    return artifact.read_json(path, "scenario")


_SCENARIO_OPTIONAL = {"seed": (int, type(None)), "params": dict,
                      "modes": list, "faults": dict, "runs": int,
                      "slo": dict}

#: What ``params`` may hold for the kinds that read it key by key; the
#: ``fleet`` and ``replacement`` kinds build a config dataclass instead.
_PARAMS = {
    "tournament": {"blocks": int, "pec_limit": float, "utilization": float},
    "carbon": {"f_op": float, "ru_shrink": float, "ru_regen": float},
    "tco": {"f_opex": float},
    "fig2": {"ecc_family": str, "pec_limit": float},
    "health": {"devices": int, "dwpd": float, "horizon": float,
               "max_days": int},
    "traffic": {"tenants": int, "duration_us": float, "arrival": str,
                "utilisation": float, "burstiness": float, "mode": str,
                "level": int, "cells": int, "shards": int,
                "read_fraction": float, "read_span": int,
                "closed_loop_fraction": float, "think_us": float,
                "admission": str, "trace": str},
    "probe": {"every": int, "requests": int},
    "agreement": {},
}


def validate_scenario(document: dict):
    """Validate ``document`` (a :class:`ConfigError` naming the field if
    it is not a scenario); return its kind's config: a config dataclass
    for ``fleet``, ``replacement`` and ``traffic``, the typed ``params``
    for every other kind."""
    artifact.require(document, "scenario", {"name": str, "kind": str},
                     optional=_SCENARIO_OPTIONAL)
    if not document["name"]:
        raise ConfigError("scenario needs a non-empty string 'name'")
    kind = document["kind"]
    if kind not in SCENARIO_KINDS:
        raise ConfigError(
            f"scenario 'kind' must be one of {SCENARIO_KINDS}, got {kind!r}")
    if "runs" in document and (kind != "fleet" or document["runs"] < 1):
        raise ConfigError(f"'runs' must be a positive int on a fleet "
                          f"scenario, got {document['runs']!r} on {kind}")
    # A field its kind ignores would run without a word: refuse it.
    if "modes" in document and kind not in ("fleet", "probe"):
        raise ConfigError(f"'modes' is for a fleet or probe scenario, "
                          f"not {kind}")
    if "seed" in document and kind in ("carbon", "tco", "fig2",
                                       "agreement"):
        raise ConfigError(f"a {kind} scenario takes no 'seed'")
    params = document.get("params", {})
    if kind == "fleet":
        config = _fleet_config(params)
    elif kind == "replacement":
        config = _replacement_config(params)
    elif kind == "traffic":
        config = _engine_config(params)
    else:
        config = _typed(params, f"{kind} params", _PARAMS[kind])
    if kind == "probe":
        from repro.io.probe import PROBE_MODES

        modes = document.get("modes", PROBE_MODES)
        if (not modes or not all(mode in PROBE_MODES for mode in modes)
                or len(set(modes)) != len(modes)):
            raise ConfigError(f"probe 'modes' must be distinct modes of "
                              f"{PROBE_MODES}, got {modes!r}")
    # Validated eagerly so a broken plan or objective fails at load, not
    # mid-run.
    if "faults" in document:
        if kind in ("traffic", "probe"):
            # Its cells run under the default run context: a plan would
            # be dropped without a word.
            raise ConfigError(f"a {kind} scenario takes no fault plan")
        scenario_fault_plan(document)
    if "slo" in document:
        if kind not in ("traffic", "probe"):
            raise ConfigError(
                f"'slo' is for a traffic or probe scenario, not {kind}")
        validate_slo_document(document["slo"])
    return config


def scenario_fault_plan(document: dict) -> FaultPlan | None:
    """The scenario's embedded fault plan, or ``None`` when fault-free."""
    plan_doc = document.get("faults")
    if plan_doc is None:
        return None
    return FaultPlan.from_dict(plan_doc)


def _typed(params: dict, what: str, types: dict) -> dict:
    """``params`` if every key is known and holds its stated type."""
    unknown = set(artifact.require(params, what, optional=types)) - set(types)
    if unknown:
        raise ConfigError(f"unknown {what}: {sorted(unknown)}")
    return params


def _config(cls, params: dict, what: str, **built):
    """A config dataclass from outside data: a field's own default says
    what type it holds (``| None`` in the annotation admits null); a field
    with a factory default is a sub-config the caller passes as ``built``."""
    types = {f.name: ((type(f.default), type(None)) if "None" in str(f.type)
                      else type(f.default))
             for f in fields(cls) if f.default is not MISSING}
    return cls(**_typed(params, what, types), **built)


def _fleet_config(params: dict):
    from repro.flash.geometry import FlashGeometry
    from repro.sim.fleet import FleetConfig

    params = dict(artifact.require(
        params, "fleet params", optional={"geometry": (dict, type(None))}))
    geometry = params.pop("geometry", None)
    built = ({"geometry": _config(FlashGeometry, geometry, "fleet geometry")}
             if geometry else {})
    return _config(FleetConfig, params, "fleet params", **built)


def _replacement_config(params: dict):
    from repro.sim.replacement import ReplacementConfig

    params = dict(artifact.require(params, "replacement params"))
    # Without a ``fleet``, the experiment's own fleet, not FleetConfig().
    built = ({"fleet": _fleet_config(params.pop("fleet"))}
             if "fleet" in params else {})
    return _config(ReplacementConfig, params, "replacement params", **built)


def _engine_config(params: dict):
    from repro.workloads.engine import EngineConfig
    from repro.workloads.traces import Trace

    types = _PARAMS["traffic"]
    params = {name: float(value) if types[name] is float else value
              for name, value in _typed(params, "traffic params",
                                        types).items()}
    # Parsed here so that a bad file fails at load, path named, not
    # inside a worker; the cells re-read the canonical text.
    trace = params.pop("trace", None)
    return EngineConfig(**params, trace_text=(
        Trace.load(trace).dumps() if trace is not None else None))


def _run_fleet(document: dict, config, writer: ExperimentWriter,
               jobs: int) -> None:
    import numpy as np

    from repro.sim.fleet import MODES
    from repro.sim.parallel import derive_seeds, run_fleet_grid
    from repro.sim.shard import simulate_fleet_sharded

    modes = document.get("modes", list(MODES))
    seed = document.get("seed", 0)
    # Each run gets a fresh injector built from the plan, so the fault
    # schedule applies identically per discipline and per seed.
    plan = scenario_fault_plan(document)
    sweep = "runs" in document
    if sweep:
        results = run_fleet_grid(config, modes,
                                 derive_seeds(seed, document["runs"]),
                                 jobs=jobs, faults=plan)
    else:
        results = {(mode, seed): simulate_fleet_sharded(
            config, mode, seed, faults=plan, jobs=jobs) for mode in modes}
    for (mode, run_seed), result in results.items():
        name = f"{mode}/{run_seed}" if sweep else mode
        writer.add_series(Series(
            f"{name}/functioning", result.days, result.functioning,
            x_label="days", y_label="functioning devices"))
        writer.add_series(Series(
            f"{name}/capacity", result.days, result.capacity_bytes,
            x_label="days", y_label="capacity bytes"))
    if not sweep:
        writer.add_table(
            "summary", ["mode", "mean_lifetime_days", "recovery_bytes",
                        "median_death_day", "initial_capacity_bytes"],
            [[mode, r.mean_lifetime_days(), r.total_recovery_bytes(),
              float(np.median(r.death_day)), r.initial_capacity_bytes]
             for (mode, _), r in results.items()])
        return
    rows = []
    for mode in modes:
        runs = [r for (m, _), r in results.items() if m == mode]
        rows.append([mode, len(runs),
                     _mean(r.mean_lifetime_days() for r in runs),
                     _mean(r.functioning[-1] for r in runs),
                     _mean(r.total_recovery_bytes() for r in runs)])
    writer.add_table(
        "by_mode", ["mode", "runs", "mean_lifetime_days",
                    "mean_survivors_at_horizon", "mean_recovery_bytes"],
        rows)


def _mean(values) -> float:
    values = [float(value) for value in values]
    return sum(values) / len(values)


def _run_tournament(document: dict, params: dict,
                    writer: ExperimentWriter, jobs: int) -> None:
    from repro.sim.lifetime import run_write_lifetime, tournament_devices

    devices = tournament_devices(blocks=params.get("blocks", 32),
                                 pec_limit=params.get("pec_limit", 30),
                                 seed=document.get("seed", 1))
    rows = []
    for name, device in devices.items():
        result = run_write_lifetime(
            device, utilization=params.get("utilization", 0.6),
            capacity_floor_fraction=0.3, seed=0)
        base = rows[0][1] if rows else result.host_writes
        rows.append([name, result.host_writes, result.host_writes / base,
                     result.mean_pec_at_death, result.death_cause])
    writer.add_table(
        "lifetimes",
        ["device", "host_writes", "vs_baseline", "mean_pec", "end_cause"],
        rows)


def _run_carbon(document: dict, params: dict, writer: ExperimentWriter,
                jobs: int) -> None:
    """Fig. 4's bars, and both modes' savings over an ``f_op`` grid."""
    import numpy as np

    from repro.models.carbon import (
        RU_REGENS,
        RU_SHRINKS,
        CarbonParams,
        carbon_savings,
        fig4_configurations,
    )

    bars = fig4_configurations(**params)
    writer.add_table("fig4", ["configuration", "savings"],
                     [[k, v] for k, v in bars.items()])
    rates = (params.get("ru_shrink", RU_SHRINKS),
             params.get("ru_regen", RU_REGENS))
    writer.add_table(
        "f_op", ["f_op", "shrinks", "regens"],
        [[f_op, *(carbon_savings(CarbonParams(f_op=f_op, upgrade_rate=ru))
                  for ru in rates)]
         for f_op in np.linspace(0.2, 0.7, 11).tolist()])


def _run_tco(document: dict, params: dict, writer: ExperimentWriter,
             jobs: int) -> None:
    """Eq. 4 at ``f_opex``, and both modes' savings over an ``f_opex``
    grid."""
    import numpy as np

    from repro.models.tco import (
        RU_REGENS,
        RU_SHRINKS,
        TCOParams,
        cost_upgrade_rate,
        opex_sensitivity,
        tco_savings,
    )

    f_opex = params.get("f_opex", 0.14)
    modes = (("shrinks", RU_SHRINKS), ("regens", RU_REGENS))
    rows = []
    for mode, ru in modes:
        tco = TCOParams(f_opex=f_opex, upgrade_rate=ru)
        rows.append([mode, tco_savings(tco), cost_upgrade_rate(tco)])
    writer.add_table("tco", ["mode", "savings", "cru"], rows)
    sweeps = [opex_sensitivity(ru, np.linspace(0.0, 0.8, 9))
              for _, ru in modes]
    writer.add_table("f_opex", ["f_opex", "shrinks", "regens"],
                     [[f, shrinks, regens] for (f, shrinks), (_, regens)
                      in zip(*sweeps)])


def _run_replacement(document: dict, config, writer: ExperimentWriter,
                     jobs: int) -> None:
    from repro.sim.replacement import measured_upgrade_rates

    results = measured_upgrade_rates(config, seed=document.get("seed", 9))
    base = results["baseline"].purchases
    writer.add_table(
        "upgrade_rates",
        ["mode", "purchases", "measured_ru", "mean_service_days",
         "preempted_fraction", "mean_capacity_fraction"],
        [[mode, r.purchases, r.purchases / base, r.mean_service_life_days,
          r.preempted_fraction, r.mean_capacity_fraction]
         for mode, r in results.items()])


def _run_fig2(document: dict, params: dict, writer: ExperimentWriter,
              jobs: int) -> None:
    from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
    from repro.models.lifetime import tiredness_tradeoff

    policy = TirednessPolicy(
        ecc_family=params.get("ecc_family", "bch"))
    model = calibrate_power_law(
        policy, pec_limit_l0=params.get("pec_limit", 3000))
    points = tiredness_tradeoff(policy, model)
    writer.add_table(
        "fig2",
        ["level", "capacity_fraction", "code_rate", "max_rber",
         "pec_limit", "pec_gain", "marginal_gain"],
        [[p.level, p.capacity_fraction, p.code_rate, p.max_rber,
          p.pec_limit, p.pec_gain, p.marginal_gain] for p in points])


def _run_health(document: dict, params: dict, writer: ExperimentWriter,
                jobs: int) -> None:
    """§2.1: a SMART failure predictor and four retirement policies."""
    import numpy as np

    from repro.flash.geometry import FlashGeometry
    from repro.health.policy import (
        evaluate_fixed_age,
        evaluate_predictive,
        evaluate_run_to_failure,
    )
    from repro.health.predictor import FailurePredictor, evaluate_predictor
    from repro.health.telemetry import TelemetryConfig, generate_trajectories

    seed = document.get("seed", 1)
    max_days = params.get("max_days", 5000)
    config = TelemetryConfig(
        devices=params.get("devices", 150),
        geometry=FlashGeometry(blocks=128, fpages_per_block=32),
        dwpd=params.get("dwpd", 1.5), sample_days=30, max_days=max_days)
    train = generate_trajectories(config, seed=seed)
    test = generate_trajectories(config, seed=seed + 1)
    predictor = FailurePredictor(
        horizon_days=params.get("horizon", 90.0)).fit(train)
    report = evaluate_predictor(predictor, test)
    writer.add_table("predictor",
                     ["precision", "recall", "base_rate", "samples"],
                     [[report.precision, report.recall, report.base_rate,
                       report.samples]])
    deaths = [t.death_day for t in test if np.isfinite(t.death_day)]
    median_life = float(np.median(deaths)) if deaths else max_days
    outcomes = [evaluate_run_to_failure(test),
                evaluate_fixed_age(test, median_life * 0.6),
                evaluate_fixed_age(test, median_life * 0.9),
                evaluate_predictive(test, predictor)]
    writer.add_table(
        "policies",
        ["policy", "mean_service_days", "unexpected_failure_rate",
         "wasted_life_fraction", "preemptive_retirements"],
        [[o.policy, o.mean_service_days, o.unexpected_failure_rate,
          o.wasted_life_fraction, o.preemptive_retirements]
         for o in outcomes])


def _run_traffic(document: dict, config, writer: ExperimentWriter,
                 jobs: int) -> None:
    from repro.rng import DEFAULT_SEED
    from repro.workloads.engine import (
        publish_traffic_metrics,
        run_traffic,
        validate_engine_document,
    )

    seed = document.get("seed")
    objectives = (validate_slo_document(document["slo"])
                  if "slo" in document else None)
    result = run_traffic(config, seed=DEFAULT_SEED if seed is None else seed,
                         jobs=jobs, objectives=objectives)
    validate_engine_document(result)
    publish_traffic_metrics(result)
    writer.meta["seed"] = result["seed"]
    writer.meta["config"] = result["config"]
    _add_records(writer, "tenants", result["tenants"])
    _add_records(writer, "cells", result["cells"])
    writer.add_table("by_class", ["class", "median_p99_us"],
                     [list(item) for item in
                      result["median_p99_by_class_us"].items()])
    _add_records(writer, "totals", [result["totals"]])
    if objectives:
        _add_records(writer, "slo", [
            {"cell": cell, **row}
            for cell, report in enumerate(result["slo"]["cells"])
            for row in report["objectives"]])


def _run_probe(document: dict, params: dict, writer: ExperimentWriter,
               jobs: int) -> None:
    """The request-traced IO probe, one cell per mode: its sampled
    requests and wear ledger go beside the artifact as :data:`REQTRACE`
    and :data:`ENDURANCE`, their per-segment latency shares and any
    ``"slo"`` verdicts (one row per device kind and objective) into it."""
    from repro.io import probe
    from repro.obs.analyze import segment_breakdown
    from repro.obs.endurance import write_endurance
    from repro.obs.reqtrace import validate_reqtrace_records, write_reqtrace
    from repro.obs.slo import evaluate_by_device
    from repro.rng import DEFAULT_SEED

    seed = document.get("seed")
    seed = DEFAULT_SEED if seed is None else seed
    modes = document.get("modes", list(probe.PROBE_MODES))
    params = {"every": probe.PROBE_EVERY, "requests": probe.PROBE_REQUESTS,
              **params}
    results = probe.run_probes(modes, seed=seed, jobs=jobs, **params)
    writer.meta.update(seed=seed, modes=modes, params=params)
    records = [record for result in results for record in result["records"]]
    validate_reqtrace_records(records)      # segments sum to latency
    wear = probe.merged_endurance(results)
    writer.add_file(REQTRACE, lambda path: write_reqtrace(
        path, records, meta=probe.reqtrace_meta(results)))
    writer.add_file(ENDURANCE, lambda path: write_endurance(
        path, wear, meta=probe.endurance_meta(results, wear)))
    segments = segment_breakdown(records)
    names = sorted({name for cohort in segments.values()
                    for name in cohort["shares"]})
    writer.add_table(
        "segments", ["cohort", "requests", "total_us", *names],
        [[cohort, shares["count"], shares["total_us"],
          *(shares["shares"].get(name, 0.0) for name in names)]
         for cohort, shares in segments.items()])
    if "slo" in document:
        # Under the default context, as a traffic cell's: the verdicts
        # are table rows, not families in the run's registry.
        with context.scoped(metrics=None):
            rows = evaluate_by_device(
                records, validate_slo_document(document["slo"]))
        _add_records(writer, "slo", rows)


def _run_agreement(document: dict, params: dict, writer: ExperimentWriter,
                   jobs: int) -> None:
    """The §4.2 measurements ``repro report`` holds to their models."""
    from repro.io.probe import agreement_tables

    for name, rows in agreement_tables(jobs=jobs).items():
        _add_records(writer, name, rows)


def _add_records(writer: ExperimentWriter, name: str, records: list) -> None:
    """A table with one row per record; a nested dict's keys become
    ``<key>_<sub>`` columns."""
    rows = []
    for record in records:
        row = {}
        for key, value in record.items():
            if isinstance(value, dict):
                row.update((f"{key}_{sub}", inner)
                           for sub, inner in value.items())
            else:
                row[key] = value
        rows.append(row)
    writer.add_table(name, list(rows[0]), [list(row.values()) for row in rows])


_RUNNERS = {
    "fleet": _run_fleet,
    "tournament": _run_tournament,
    "carbon": _run_carbon,
    "tco": _run_tco,
    "replacement": _run_replacement,
    "fig2": _run_fig2,
    "health": _run_health,
    "traffic": _run_traffic,
    "probe": _run_probe,
    "agreement": _run_agreement,
}


def run_scenario(document: dict, jobs: int = 1) -> ExperimentWriter:
    """Execute a validated scenario; returns the artifact writer.

    ``jobs`` is the worker count of the fleet kind (shards, or the runs
    of a sweep), of the traffic kind (cells), of the probe kind (modes)
    and of the agreement kind (cells); no other kind reads it, and no artifact records it. The
    document is validated and its config built once, here.

    When the scenario carries a ``"faults"`` plan (``repro.faults/v1``)
    its injector is scoped into the run context for the duration of the
    run, so functional kinds (``tournament``, ...) construct their
    devices fault-aware; the fleet kind additionally passes the plan per
    run for fresh per-run trigger counters. The plan document is echoed
    into the artifact's ``meta`` for provenance.
    """
    config = validate_scenario(document)
    kind = document["kind"]
    meta = {
        "kind": kind,
        "seed": document.get("seed"),
        "params": document.get("params", {}),
    }
    if "runs" in document:
        meta["runs"] = document["runs"]
    plan = scenario_fault_plan(document)
    if plan is not None:
        meta["faults"] = plan.to_dict()
    if "slo" in document:
        meta["slo"] = document["slo"]
    writer = ExperimentWriter(document["name"], meta=meta)
    scope = {} if plan is None else {"faults": FaultInjector(plan)}
    with context.scoped(**scope):
        _RUNNERS[kind](document, config, writer, jobs)
    return writer

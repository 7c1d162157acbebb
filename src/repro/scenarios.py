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

``run_scenario`` dispatches on ``kind`` (``fleet``, ``tournament``,
``carbon``, ``tco``, ``replacement``, ``fig2``) and returns an
:class:`~repro.reporting.export.ExperimentWriter` holding structured
tables/series, ready to ``write()`` as a JSON artifact. The CLI exposes
this as ``python -m repro run <scenario.json> [--out results/]``.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from pathlib import Path

from repro import artifact, context
from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultPlan
from repro.reporting.export import ExperimentWriter
from repro.reporting.series import Series

SCENARIO_KINDS = ("fleet", "tournament", "carbon", "tco", "replacement",
                  "fig2")


def load_scenario(path: str | Path) -> dict:
    """Read and validate a scenario document."""
    return validate_scenario(artifact.read_json(path, "scenario"))


_SCENARIO_OPTIONAL = {"seed": (int, type(None)), "params": dict,
                      "modes": list, "faults": dict}

#: What ``params`` may hold for the kinds that read it key by key; the
#: ``fleet`` and ``replacement`` kinds build a config dataclass instead.
_PARAMS = {
    "tournament": {"blocks": int, "pec_limit": float, "utilization": float},
    "carbon": {"f_op": float, "ru_shrink": float, "ru_regen": float},
    "tco": {"f_opex": float},
    "fig2": {"ecc_family": str, "pec_limit": float},
}


def validate_scenario(document: dict) -> dict:
    artifact.require(document, "scenario", {"name": str, "kind": str},
                     optional=_SCENARIO_OPTIONAL)
    if not document["name"]:
        raise ConfigError("scenario needs a non-empty string 'name'")
    kind = document["kind"]
    if kind not in SCENARIO_KINDS:
        raise ConfigError(
            f"scenario 'kind' must be one of {SCENARIO_KINDS}, got {kind!r}")
    params = document.get("params", {})
    if kind == "fleet":
        _fleet_config(params)
    elif kind == "replacement":
        _replacement_config(params)
    else:
        _typed(params, f"{kind} params", _PARAMS[kind])
    if "faults" in document:
        # Validates eagerly so a broken plan fails at load, not mid-run.
        scenario_fault_plan(document)
    return document


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
    fleet = _fleet_config(params.pop("fleet", {}))
    return _config(ReplacementConfig, params, "replacement params",
                   fleet=fleet)


def _run_fleet(document: dict, writer: ExperimentWriter) -> None:
    from repro.sim.fleet import MODES, simulate_fleet

    config = _fleet_config(document.get("params", {}))
    modes = document.get("modes", list(MODES))
    seed = document.get("seed", 0)
    # Each mode gets a fresh injector built from the plan, so the fault
    # schedule applies identically per discipline (like per sweep task).
    plan = scenario_fault_plan(document)
    rows = []
    for mode in modes:
        result = simulate_fleet(config, mode, seed=seed, faults=plan)
        writer.add_series(Series(
            f"{mode}/functioning", result.days, result.functioning,
            x_label="days", y_label="functioning devices"))
        writer.add_series(Series(
            f"{mode}/capacity", result.days, result.capacity_bytes,
            x_label="days", y_label="capacity bytes"))
        rows.append([mode, result.mean_lifetime_days(),
                     result.total_recovery_bytes()])
    writer.add_table("summary",
                     ["mode", "mean_lifetime_days", "recovery_bytes"], rows)


def _run_tournament(document: dict, writer: ExperimentWriter) -> None:
    from repro.sim.lifetime import run_write_lifetime, tournament_devices

    params = document.get("params", {})
    devices = tournament_devices(blocks=params.get("blocks", 32),
                                 pec_limit=params.get("pec_limit", 30),
                                 seed=document.get("seed", 1))
    rows = []
    for name, device in devices.items():
        result = run_write_lifetime(
            device, utilization=params.get("utilization", 0.6),
            capacity_floor_fraction=0.3, seed=0)
        rows.append([name, result.host_writes, result.mean_pec_at_death,
                     result.death_cause])
    writer.add_table("lifetimes",
                     ["device", "host_writes", "mean_pec", "end_cause"],
                     rows)


def _run_carbon(document: dict, writer: ExperimentWriter) -> None:
    from repro.models.carbon import fig4_configurations

    params = document.get("params", {})
    bars = fig4_configurations(**params)
    writer.add_table("fig4", ["configuration", "savings"],
                     [[k, v] for k, v in bars.items()])


def _run_tco(document: dict, writer: ExperimentWriter) -> None:
    from repro.models.tco import (RU_REGENS, RU_SHRINKS, TCOParams,
                                  tco_savings)

    params = document.get("params", {})
    f_opex = params.get("f_opex", 0.14)
    rows = [[mode, tco_savings(TCOParams(f_opex=f_opex, upgrade_rate=ru))]
            for mode, ru in (("shrinks", RU_SHRINKS),
                             ("regens", RU_REGENS))]
    writer.add_table("tco", ["mode", "savings"], rows)


def _run_replacement(document: dict, writer: ExperimentWriter) -> None:
    from repro.sim.replacement import measured_upgrade_rates

    config = _replacement_config(document.get("params", {}))
    results = measured_upgrade_rates(config, seed=document.get("seed", 9))
    base = results["baseline"].purchases
    writer.add_table(
        "upgrade_rates",
        ["mode", "purchases", "measured_ru", "mean_service_days",
         "preempted_fraction"],
        [[mode, r.purchases, r.purchases / base, r.mean_service_life_days,
          r.preempted_fraction] for mode, r in results.items()])


def _run_fig2(document: dict, writer: ExperimentWriter) -> None:
    from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
    from repro.models.lifetime import tiredness_tradeoff

    params = document.get("params", {})
    policy = TirednessPolicy(
        ecc_family=params.get("ecc_family", "bch"))
    model = calibrate_power_law(
        policy, pec_limit_l0=params.get("pec_limit", 3000))
    points = tiredness_tradeoff(policy, model)
    writer.add_table(
        "fig2",
        ["level", "capacity_fraction", "code_rate", "max_rber",
         "pec_limit", "pec_gain"],
        [[p.level, p.capacity_fraction, p.code_rate, p.max_rber,
          p.pec_limit, p.pec_gain] for p in points])


_RUNNERS = {
    "fleet": _run_fleet,
    "tournament": _run_tournament,
    "carbon": _run_carbon,
    "tco": _run_tco,
    "replacement": _run_replacement,
    "fig2": _run_fig2,
}


def run_scenario(document: dict) -> ExperimentWriter:
    """Execute a validated scenario; returns the artifact writer.

    When the scenario carries a ``"faults"`` plan (``repro.faults/v1``)
    its injector is scoped into the run context for the duration of the
    run, so functional kinds (``tournament``, ...) construct their
    devices fault-aware; the fleet kind additionally passes the plan per
    mode for fresh per-run trigger counters. The plan document is echoed
    into the artifact's ``meta`` for provenance.
    """
    document = validate_scenario(document)
    meta = {
        "kind": document["kind"],
        "seed": document.get("seed"),
        "params": document.get("params", {}),
    }
    plan = scenario_fault_plan(document)
    if plan is not None:
        meta["faults"] = plan.to_dict()
    writer = ExperimentWriter(document["name"], meta=meta)
    scope = {} if plan is None else {"faults": FaultInjector(plan)}
    with context.scoped(**scope):
        _RUNNERS[document["kind"]](document, writer)
    return writer

"""Golden gate for the fleet model (paper Fig. 3a/3b).

``simulate_fleet`` and ``simulate_fleet_sharded`` run the same walk and
the same assemble pass, so the equivalence tests in ``test_shard.py``
compare a function with itself. This table is the independent
reference: it was generated on the commit *before* the two step loops
were merged (``python tests/sim/test_fleet_golden.py`` prints it), when
the serial loop and the sharded workers were separate code. The
``wide-*`` cases were added the same way on the commit before the
per-device loop became the columnar walk: 640 devices on an 8x8
geometry, so the walk's banded row groups split — in two at the
default sigma on the whole fleet, in six at sigma 1.2 and still in two
inside each of three ranges.

Every case pins the SHA-256 of one canonical JSON document holding the
five ``FleetResult`` arrays, the timeseries document, the trace records
and the metrics document of a run with all three observability
singletons on (wall-clock series and histograms dropped), and, where
the caller hands in a ``np.random.Generator``, its state on return. The
final survivor count, the death count per cause and the number of trace
records are pinned in the clear as well, so a failure says what moved.
Re-baselining is a deliberate act: regenerate, and say why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro import context
from repro.faults import FaultPlan, FaultSpec
from repro.flash.geometry import FlashGeometry
from repro.flash.rber import ExponentialRBER
from repro.flash.tiredness import TirednessPolicy
from repro.obs import MetricsRegistry, SimTimeTracer, TimeseriesSampler
from repro.sim.fleet import MODES, FleetConfig, simulate_fleet
from repro.sim.shard import simulate_fleet_sharded

CONFIG = FleetConfig(
    devices=13,
    geometry=FlashGeometry(blocks=16, fpages_per_block=16),
    pec_limit_l0=800.0,
    dwpd=1.0,
    afr=0.15,
    horizon_days=600,
    step_days=10,
)
SEEDS = (77, 2025)
CADENCE = 30.0
#: Wide fleets on a tiny geometry: enough device rows that the columnar
#: walk's row groups split (340 rows fit one at the default sigma, 127
#: at sigma 1.2).
WIDE = replace(CONFIG, devices=640,
               geometry=FlashGeometry(blocks=8, fpages_per_block=8))
WIDE_CONFIGS = {"wide": WIDE,
                "wide-sigma": replace(WIDE, variation_sigma=1.2)}

#: Two ``fleet.step`` hits: two devices on step 3, one more on step 21.
LOSS_PLAN = FaultPlan(events=(
    FaultSpec(site="fleet.step", fault="device_loss", when=3,
              args={"devices": 2}),
    FaultSpec(site="fleet.step", fault="device_loss", when=21,
              args={"devices": 1}),
))


def _exponential_model():
    policy = TirednessPolicy(geometry=CONFIG.geometry)
    return ExponentialRBER.calibrated(pec_limit=250.0,
                                      max_rber=policy.max_rber(0))


def _serial(config=CONFIG, **kwargs):
    return lambda mode, seed: simulate_fleet(config, mode, seed=seed,
                                             **kwargs)


def _sharded(shards, jobs, config=CONFIG):
    return lambda mode, seed: simulate_fleet_sharded(
        config, mode, seed=seed, shards=shards, jobs=jobs)


#: name -> (runner, mode, seed); a Generator seed is built per run.
CASES: dict[str, tuple] = {}
for _mode in MODES:
    for _seed in SEEDS:
        CASES[f"{_mode}-s{_seed}"] = (_serial(), _mode, _seed)
        CASES[f"{_mode}-s{_seed}-plan"] = (
            _serial(faults=LOSS_PLAN), _mode, _seed)
CASES["cvss-avg-rber"] = (
    _serial(replace(CONFIG, cvss_rule="avg-rber")), "cvss", 77)
CASES["regen-level2"] = (
    _serial(replace(CONFIG, regen_max_level=2)), "regen", 77)
CASES["shrink-cv0"] = (_serial(replace(CONFIG, dwpd_cv=0.0)), "shrink", 77)
CASES["regen-rber-model"] = (
    _serial(rber_model=_exponential_model()), "regen", 77)
CASES["shrink-generator"] = (_serial(), "shrink", "generator")
CASES["regen-generator-plan"] = (
    _serial(faults=LOSS_PLAN), "regen", "generator")
for _shards in (1, 3, 8):
    for _jobs in (1, 2):
        CASES[f"regen-shards{_shards}-j{_jobs}"] = (
            _sharded(_shards, _jobs), "regen", 77)
for _name, _config in WIDE_CONFIGS.items():
    for _mode in MODES:
        CASES[f"{_name}-{_mode}-plan"] = (
            _serial(_config, faults=LOSS_PLAN), _mode, 77)
        CASES[f"{_name}-{_mode}-shards3"] = (
            _sharded(3, 1, _config), _mode, 77)


def _floats(array) -> list:
    return [None if np.isinf(v) else v for v in np.asarray(array).tolist()]


def run_case(name: str) -> dict:
    runner, mode, seed = CASES[name]
    rng = np.random.default_rng(5) if seed == "generator" else None
    registry, tracer = MetricsRegistry(), SimTimeTracer()
    sampler = TimeseriesSampler(registry=registry, cadence=CADENCE)
    with context.scoped(metrics=registry, tracer=tracer,
                        timeseries=sampler):
        result = runner(mode, rng if rng is not None else seed)
    timeseries = sampler.to_dict()
    trace = [record.to_json() for record in tracer.records()]
    metrics = registry.to_dict()
    timeseries["series"] = [s for s in timeseries["series"]
                            if "duration_seconds" not in s["name"]]
    metrics["metrics"] = [
        family for family in metrics["metrics"]
        if not (family["type"] == "histogram"
                and family["unit"] == "seconds")]
    return {
        "result": {
            "mode": result.mode,
            "days": _floats(result.days),
            "functioning": _floats(result.functioning),
            "capacity_bytes": _floats(result.capacity_bytes),
            "capacity_lost_bytes": _floats(result.capacity_lost_bytes),
            "death_day": _floats(result.death_day),
            "initial_capacity_bytes": result.initial_capacity_bytes,
        },
        "timeseries": timeseries,
        "trace": trace,
        "metrics": metrics,
        "rng_state": None if rng is None else rng.bit_generator.state,
    }


def deaths_by_cause(document: dict) -> dict[str, int]:
    """``repro_fleet_device_deaths_total`` samples, keyed by cause."""
    for family in document["metrics"]["metrics"]:
        if family["name"] == "repro_fleet_device_deaths_total":
            return {sample["labels"]["cause"]: int(sample["value"])
                    for sample in family["samples"]}
    return {}


def digest(document: dict) -> str:
    text = json.dumps(document, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def summary(document: dict) -> tuple[int, str, int, str]:
    deaths = deaths_by_cause(document)
    causes = ",".join(f"{cause}={deaths[cause]}" for cause in sorted(deaths))
    return (document["result"]["functioning"][-1], causes,
            len(document["trace"]), digest(document))


#: case -> (survivors at the horizon, deaths by cause, trace records, digest)
GOLDEN: dict[str, tuple[int, str, int, str]] = {
    "baseline-s77": (
        0, "afr=1,wear=12", 13,
        "1d420dbfe9f9840906f976485f7e9ba9649fe7f9438a1c4644a16728a11918c5"),
    "baseline-s77-plan": (
        0, "afr=1,injected=3,wear=9", 13,
        "bfea8b74e809ddffc97c3acc0eaafffc1013f04de316fe6a83c6d3373fd52a81"),
    "baseline-s2025": (
        0, "afr=2,wear=11", 13,
        "921a90df46830452c5e024a39dfba6d8860f72a52b33e1b20e512d2bbe93c00c"),
    "baseline-s2025-plan": (
        0, "afr=1,injected=3,wear=9", 13,
        "f9be8a7a0eda38a873ef668466bca08288798e0df71c5ee725d6e53417d3bc30"),
    "cvss-s77": (
        0, "wear=13", 13,
        "a47416845a00fd818918a383d92a54eae6c7b881d29335f8186f68d75360d9a5"),
    "cvss-s77-plan": (
        0, "injected=3,wear=10", 13,
        "22fd586eb280cec42425af51673c2be5ad37b6f7d6324258e9c4577ec1dc8c77"),
    "cvss-s2025": (
        0, "afr=1,wear=12", 13,
        "3696063a570655aa422c0d6ae72de87bf904645f5cc8203514c403ac6f138136"),
    "cvss-s2025-plan": (
        0, "afr=1,injected=3,wear=9", 13,
        "154d84ebba3a6f7c56478e9505daca4084df02f0526008bab3de31566415f8dd"),
    "shrink-s77": (
        0, "wear=13", 13,
        "622a78f76a2c8ea2c7aac61c4f8b058983aa45bf05b5356d3d24439d5bad14e6"),
    "shrink-s77-plan": (
        0, "injected=3,wear=10", 13,
        "867b019345c574dcf14f629235449cf8ada1aa5fa633bb6b10ff4d81b83e9f87"),
    "shrink-s2025": (
        1, "afr=2,wear=10", 12,
        "6baaa11fbf1030b624036abd9dd51c1c2e12b2e8f06143d3c5a7f94544799992"),
    "shrink-s2025-plan": (
        0, "afr=2,injected=3,wear=8", 13,
        "507edbe56304ad2b10e50db15476a797a11b8e93ad2726026552c152aee4b8dc"),
    "regen-s77": (
        0, "afr=1,wear=12", 13,
        "aac378c17c2aa639ab2cd568f836ef5d1f44879068da018c13eaea4ea9493b0f"),
    "regen-s77-plan": (
        0, "afr=1,injected=3,wear=9", 13,
        "04a45b6305ffa28e61611bb64a803a0a99ce6f6fcb65ea58ba84e6b09f1a770a"),
    "regen-s2025": (
        6, "afr=3,wear=4", 7,
        "5d360bbc98386446676bd74450d4df6fdca140b028466bb219544baf17abc996"),
    "regen-s2025-plan": (
        5, "afr=3,injected=3,wear=2", 8,
        "98f39f1fb80eed580ccc23593a6f4c1af972f435a619935683371ee5b143e6d4"),
    "cvss-avg-rber": (
        0, "wear=13", 13,
        "793df5f7f954bde65fb1ad3417b092e6684b2e62983921a6f58af251cb7632a8"),
    "regen-level2": (
        6, "afr=1,wear=6", 7,
        "6dc5a4a6a915c92478a04b8d6bedfd2dea3ac08fdc3cbdbd7472620bd6870b71"),
    "shrink-cv0": (
        0, "wear=13", 13,
        "216c1274184011781ad8f53aa2619c4772a8231e66e6408ef36d737aac0e7cda"),
    "regen-rber-model": (
        0, "wear=13", 13,
        "31081ad6fb8072ebf83925a2717449822fa21f15527865bf74e2f9e6804adcc3"),
    "shrink-generator": (
        2, "afr=1,wear=10", 11,
        "61be57db8978b16c15f4b0f56c86de75a56f5900d9ca08bad9ffde903c7c1046"),
    "regen-generator-plan": (
        5, "afr=2,injected=3,wear=3", 8,
        "3e7caf4894999fd472b6222d04ea0a2f200b70cd06f833ef29746eb620ae667d"),
    "regen-shards1-j1": (
        0, "afr=1,wear=12", 13,
        "458be2f0ed85f45c21e485c8a85dedf008f53bd9033173b7a38fd4f11e7c16a4"),
    "regen-shards1-j2": (
        0, "afr=1,wear=12", 13,
        "458be2f0ed85f45c21e485c8a85dedf008f53bd9033173b7a38fd4f11e7c16a4"),
    "regen-shards3-j1": (
        0, "afr=1,wear=12", 13,
        "7bd0bdfc67a53a28b2665ecf02d80b4303a0e30c8adcc694a7035770274bb5ce"),
    "regen-shards3-j2": (
        0, "afr=1,wear=12", 13,
        "7bd0bdfc67a53a28b2665ecf02d80b4303a0e30c8adcc694a7035770274bb5ce"),
    "regen-shards8-j1": (
        0, "afr=1,wear=12", 13,
        "ca55c86d0da04948893251b256d4883be6568dd1353b53722f5f5f2585d91e6f"),
    "regen-shards8-j2": (
        0, "afr=1,wear=12", 13,
        "ca55c86d0da04948893251b256d4883be6568dd1353b53722f5f5f2585d91e6f"),
    "wide-baseline-plan": (
        5, "afr=100,injected=3,wear=532", 635,
        "84e79928f2b81e620a26dc442083113e1ebf3e21da3ce43f40877c2c6233004a"),
    "wide-baseline-shards3": (
        5, "afr=100,wear=535", 635,
        "af7d3aa9f2ea756977c4466613d6b1cfe7dec3379bbb6614c4f3d7abb5daa01a"),
    "wide-cvss-plan": (
        13, "afr=102,injected=3,wear=522", 627,
        "04a0c56e1e06da96666893eb889a5e5068547b8e4f8c4747a647d631f2bb40cf"),
    "wide-cvss-shards3": (
        13, "afr=102,wear=525", 627,
        "daaf04cb6be181ffa9b9d5ca2ad86f958eeb88e58d7a3ffb65f8269238f1c2cf"),
    "wide-shrink-plan": (
        63, "afr=122,injected=3,wear=452", 577,
        "49cac0cfc0ce8031d807553f4bbe9463f91bad5bc837194da206b71060d2db58"),
    "wide-shrink-shards3": (
        63, "afr=122,wear=455", 577,
        "c241c7326735df5a332fb4d31cb7a8388d8a90ab336472fa76c05224ad94ab87"),
    "wide-regen-plan": (
        303, "afr=98,injected=3,wear=236", 337,
        "7547c596b1bb9d34e7a65ce86b16bd0d47c508c006949eeb614b229a23433ccc"),
    "wide-regen-shards3": (
        303, "afr=98,wear=239", 337,
        "23c5cf36c354f41e9e9e6c585ce657fbac833d574bf446c9457ac80f2181acb9"),
    "wide-sigma-baseline-plan": (
        0, "afr=54,injected=3,wear=583", 640,
        "74f0b3b0046d9cc441f8569e5be18e5642e174ee799f239e27cd9bc9049255b7"),
    "wide-sigma-baseline-shards3": (
        0, "afr=54,wear=586", 640,
        "921de22198814f8250e5d91d4b094c2cc31ebc78c430abac7ee100c8ccb02c59"),
    "wide-sigma-cvss-plan": (
        0, "afr=70,injected=3,wear=567", 640,
        "d9cd72ac38046ceaf716fc0eaed8115ffd2398d46db42c21dcdede30f71f7f4e"),
    "wide-sigma-cvss-shards3": (
        0, "afr=70,wear=570", 640,
        "c41a36adb44503f9871501a5bff1f406db10fce4ea62b9ba18f3a5064fd59bed"),
    "wide-sigma-shrink-plan": (
        74, "afr=122,injected=3,wear=441", 566,
        "d33d041547e0b6c8a48657e9dee570faf061827bf2198815907a9fc7c4255902"),
    "wide-sigma-shrink-shards3": (
        74, "afr=122,wear=444", 566,
        "8d16a59d2e6fd38331f3e76442ff8fdbac22ce46c9f6f7e77b8cac204da6bde4"),
    "wide-sigma-regen-plan": (
        318, "afr=100,injected=3,wear=219", 322,
        "e6d4c07bc0aedf18e7a1f3c3299520b57cfaeeb7a620a39f802e748d356a1dc6"),
    "wide-sigma-regen-shards3": (
        318, "afr=100,wear=222", 322,
        "180f2f2984d044e30a835d0d2a1e08f7f5b3d4c5a82dbfd1330c48ed43ade4ab"),
}


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_fleet_run_is_unchanged(name):
    assert summary(run_case(name)) == GOLDEN[name]


def test_cases_exercise_what_they_name():
    """The matrix is only a gate if every death cause really occurs."""
    seen: dict[str, int] = {}
    for name, (_, causes, _, _) in GOLDEN.items():
        for item in filter(None, causes.split(",")):
            cause, count = item.split("=")
            seen[cause] = seen.get(cause, 0) + int(count)
        if "plan" in name:
            assert "injected=3" in causes, name
        else:
            assert "injected" not in causes, name
    assert seen["afr"] > 0 and seen["wear"] > 0
    # Both plan events land while devices are still alive, and the
    # sampler takes samples (fault counters move *between* samples).
    document = run_case("regen-s77-plan")
    assert document["timeseries"]["samples_taken"] > 10
    injected = [r for r in document["trace"]
                if r["attrs"].get("cause") == "injected"]
    assert [r["time"] for r in injected] == [30.0, 30.0, 210.0]


def test_injected_deaths_precede_afr_and_wear_within_a_step():
    """Day 210 of this case holds an injected and an AFR death."""
    document = run_case("baseline-s77-plan")
    causes = [record["attrs"]["cause"] for record in document["trace"]
              if record["time"] == 210.0]
    assert causes == ["injected", "afr"]


def test_jobs_do_not_move_the_digest():
    for shards in (1, 3, 8):
        assert (GOLDEN[f"regen-shards{shards}-j1"]
                == GOLDEN[f"regen-shards{shards}-j2"])


def test_one_shard_is_the_serial_walk():
    """Same document as ``simulate_fleet`` up to the shard gauge."""
    serial = run_case("regen-s77")
    sharded = run_case("regen-shards1-j1")
    for key in ("result", "timeseries", "trace", "rng_state"):
        assert serial[key] == sharded[key], key
    extra = [f["name"] for f in sharded["metrics"]["metrics"]
             if f not in serial["metrics"]["metrics"]]
    assert extra == ["repro_shard_devices"]


if __name__ == "__main__":  # regenerate the table
    print("GOLDEN: dict[str, tuple[int, str, int, str]] = {")
    for case in CASES:
        survivors, causes, records, sha = summary(run_case(case))
        print(f'    "{case}": (\n'
              f'        {survivors}, "{causes}", {records},\n'
              f'        "{sha}"),')
    print("}")

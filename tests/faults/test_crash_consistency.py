"""Crash-consistency fuzz harness: write → crash → remount → verify.

Each episode walks one device flavour through a seeded op stream while
a ``FaultPlan`` injects power losses at FTL/GC/Salamander crash sites;
:mod:`tests.faults.walk` holds the engine and the oracle rules. The
matrix is sized so a default run banks well over 200 crash/remount
episodes across the four flavours; set ``REPRO_FUZZ_BUDGET`` to scale
the seed count up for soak runs (or down, at the cost of the episode
floor test skipping itself).

On any invariant failure the assertion is re-raised with the flavour,
seed and the plan's JSON so the exact episode can be replayed:

    plan = FaultPlan.from_json(reproducer)
    with context.scoped(faults=FaultInjector(plan)): ...
"""

from __future__ import annotations

import os

import pytest

from repro import context
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.ssd.ftl import PageMappedFTL

from .walk import (
    FTL_CRASH_SITES,
    SALAMANDER_CRASH_SITES,
    replay_reference,
    run_episode,
    run_episode_batched,
    run_episode_ranges,
    verify_invariants,
)

FLAVOURS = ("ftl", "baseline", "shrink", "regen")


def fuzz_budget() -> int:
    """Seeds per flavour; REPRO_FUZZ_BUDGET scales soak runs."""
    return max(1, int(os.environ.get("REPRO_FUZZ_BUDGET", "17")))


SEEDS = tuple(range(100, 100 + fuzz_budget()))

#: Deterministic anchors guaranteeing >= 3 crashes per episode on top of
#: whatever the random plan contributes: the 13th host write, the 4th
#: and 9th buffer drains. (GC/scrub/decommission sites fire only when
#: the walk happens to reach them, so they cannot be anchors.)
ANCHORS = (
    FaultSpec(site="ftl.write", fault="crash", when=13),
    FaultSpec(site="ftl.drain.pre_program", fault="crash", when=4),
    FaultSpec(site="ftl.drain.post_program", fault="crash", when=9),
)

MIN_EPISODES = 200

_TALLY = {"episodes": 0, "runs": 0, "sites": set()}


def build_device(flavour, make_chip, ftl_config, make_baseline,
                 make_salamander, seed):
    """Fault-free chips only: random media errors would blur the oracle."""
    if flavour == "ftl":
        return PageMappedFTL.for_chip(
            make_chip(seed=seed, inject_errors=False), ftl_config)
    if flavour == "baseline":
        return make_baseline(seed=seed, inject_errors=False)
    return make_salamander(mode=flavour, seed=seed, inject_errors=False)


def episode_plan(flavour, seed) -> FaultPlan:
    sites = (SALAMANDER_CRASH_SITES if flavour in ("shrink", "regen")
             else FTL_CRASH_SITES)
    return FaultPlan.random(seed, n_events=5, sites=sites,
                            max_when=60, max_count=2).extended(*ANCHORS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("flavour", FLAVOURS)
def test_fuzz_episode(flavour, seed, make_chip, ftl_config, make_baseline,
                      make_salamander):
    plan = episode_plan(flavour, seed)
    with context.scoped(faults=FaultInjector(plan)):
        device = build_device(flavour, make_chip, ftl_config,
                              make_baseline, make_salamander, seed)
        try:
            result = run_episode(device, plan, seed)
            verify_invariants(result)
        except AssertionError as failure:
            raise AssertionError(
                f"{failure}\n--- reproducer: flavour={flavour} "
                f"walk_seed={seed} plan ---\n{plan.to_json()}") from failure
    assert result.crashes >= 3, (
        f"anchor crashes did not fire (got {result.crashes}); "
        f"sites seen: {result.crash_sites}")
    _TALLY["episodes"] += result.crashes
    _TALLY["runs"] += 1
    _TALLY["sites"].update(result.crash_sites)


@pytest.mark.parametrize("seed", SEEDS[:8])
@pytest.mark.parametrize("flavour", ("ftl", "baseline"))
def test_fuzz_episode_batched(flavour, seed, make_chip, ftl_config,
                              make_baseline, make_salamander):
    """Crash fuzz through ``DeviceQueue.dispatch``: power losses handed
    back in the result tuple must leave the same acked-durability and
    trim guarantees as direct device calls."""
    plan = episode_plan(flavour, seed)
    with context.scoped(faults=FaultInjector(plan)):
        device = build_device(flavour, make_chip, ftl_config,
                              make_baseline, make_salamander, seed)
        try:
            result = run_episode_batched(device, plan, seed)
            verify_invariants(result)
        except AssertionError as failure:
            raise AssertionError(
                f"{failure}\n--- reproducer: flavour={flavour} "
                f"walk_seed={seed} batched plan ---\n"
                f"{plan.to_json()}") from failure
    assert result.crashes >= 3, (
        f"anchor crashes did not fire (got {result.crashes}); "
        f"sites seen: {result.crash_sites}")


#: Crashes that cut a range short somewhere in its middle, by site,
#: over the whole range-episode matrix.
_TORN = {"runs": 0, "sites": set()}


@pytest.mark.parametrize("seed", SEEDS[:6])
@pytest.mark.parametrize("flavour", FLAVOURS)
def test_fuzz_episode_ranges(flavour, seed, make_chip, ftl_config,
                             make_baseline, make_salamander):
    """Crash fuzz with ``write_range`` as the host write: a power loss
    in the middle of a range keeps every member acked before it and
    leaves the rest old-or-new."""
    plan = episode_plan(flavour, seed)
    with context.scoped(faults=FaultInjector(plan)):
        device = build_device(flavour, make_chip, ftl_config,
                              make_baseline, make_salamander, seed)
        try:
            result = run_episode_ranges(device, plan, seed)
            verify_invariants(result)
        except AssertionError as failure:
            raise AssertionError(
                f"{failure}\n--- reproducer: flavour={flavour} "
                f"walk_seed={seed} ranges plan ---\n"
                f"{plan.to_json()}") from failure
    assert result.crashes >= 3, (
        f"anchor crashes did not fire (got {result.crashes}); "
        f"sites seen: {result.crash_sites}")
    _TORN["runs"] += 1
    _TORN["sites"].update(site for site, landed, span in result.torn
                          if 0 < landed < span)


def test_range_episodes_crash_mid_range():
    """The range matrix really tears ranges at the write hit and on
    both sides of a drain's program."""
    full_matrix = len(FLAVOURS) * len(SEEDS[:6])
    if _TORN["runs"] < full_matrix:
        pytest.skip(f"only {_TORN['runs']}/{full_matrix} range episodes "
                    "ran (filtered or reduced REPRO_FUZZ_BUDGET)")
    assert {"ftl.write", "ftl.drain.pre_program",
            "ftl.drain.post_program"} <= _TORN["sites"], _TORN


def test_crash_episode_floor():
    """CI smoke banks >= 200 crash/remount episodes across flavours."""
    full_matrix = len(FLAVOURS) * len(SEEDS)
    if _TALLY["runs"] < full_matrix:
        pytest.skip(f"only {_TALLY['runs']}/{full_matrix} episodes ran "
                    "(filtered or reduced REPRO_FUZZ_BUDGET)")
    assert _TALLY["episodes"] >= MIN_EPISODES, _TALLY
    # The matrix must exercise more than the anchor sites.
    assert len(_TALLY["sites"]) >= 4, sorted(_TALLY["sites"])


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_episode_is_deterministic(flavour, make_chip, ftl_config,
                                  make_baseline, make_salamander):
    """Same plan + walk seed twice => byte-identical surviving state."""
    states = []
    for _ in range(2):
        plan = episode_plan(flavour, 4242)
        with context.scoped(faults=FaultInjector(plan)):
            device = build_device(flavour, make_chip, ftl_config,
                                  make_baseline, make_salamander, 4242)
            result = run_episode(device, plan, 4242)
        reads = {}
        for key in sorted(result.oracle):
            from .walk import _read_key
            reads[str(key)] = _read_key(result.device, key)
        states.append((result.crashes, tuple(result.crash_sites),
                       sorted(result.oracle.items()), reads))
    assert states[0] == states[1]


@pytest.mark.parametrize("flavour", ["ftl", "baseline"])
@pytest.mark.parametrize("seed", SEEDS[:5])
def test_differential_replay(flavour, seed, make_chip, ftl_config,
                             make_baseline, make_salamander):
    """Replaying the acked op stream on a fault-free reference device
    reproduces every surviving acked payload byte for byte."""
    plan = episode_plan(flavour, seed)
    with context.scoped(faults=FaultInjector(plan)):
        device = build_device(flavour, make_chip, ftl_config,
                              make_baseline, make_salamander, seed)
        result = run_episode(device, plan, seed)

    # Fresh chip, same geometry, no faults scoped.
    reference = build_device(flavour, make_chip, ftl_config,
                             make_baseline, make_salamander, seed)
    applied = replay_reference(reference, result.acked_ops)

    # Keys whose last acked op made it into the replayed prefix must
    # read identically on both devices. Trimmed keys are excluded: the
    # reference never crashed, so its trims never resurrect.
    last_index = {}
    for index, (op, key, _payload) in enumerate(result.acked_ops):
        last_index[key] = index
    compared = 0
    opage = reference.geometry.opage_bytes
    for key, payload in sorted(result.oracle.items()):
        if last_index[key] >= applied:
            continue
        assert reference.read(key) == payload.ljust(opage, b"\0")
        assert result.device.read(key) == reference.read(key)
        compared += 1
    assert compared > 0, "differential test compared nothing"
    assert result.crashes >= 3

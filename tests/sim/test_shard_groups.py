"""The grouped walk against one walk per shard.

``simulate_fleet_sharded`` hands each worker a contiguous group of
shards, and ``walk_shard`` steps the group's device range once, cutting
every shard's partials from its own slice of the range's vectors. The
twin is the layout the grouping replaced: a separate ``walk_shard`` over
each shard's range alone. Each shard's partials must be *equal* across
the two, field by field — functioning, the float bits of capacity,
deaths in order, census, entry wears and burn — whatever the device
count, shard layout, grouping, mode and sample schedule.
``test_seeded_mutations_are_caught`` breaks the cut three ways and
requires the comparison to notice each.

The executed-call ceiling pins what the grouping buys: one
``FleetRules.advertised_bytes`` per step for a whole one-worker run,
not one per shard per step.
"""

from __future__ import annotations

import inspect
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import context
from repro.obs import MetricsRegistry
from repro.sim import fleet
from repro.sim.fleet import MODES, FleetRules, ShardTask
from repro.sim.shard import partition_devices, simulate_fleet_sharded
from tests.sim.test_shard import TINY_CONFIG

#: Short and harsh, so a few dozen steps see AFR and wear deaths.
TWIN_CONFIG = replace(TINY_CONFIG, afr=0.5, horizon_days=200)
STEPS = FleetRules(TWIN_CONFIG, "shrink").steps


def _bits(value: float) -> str:
    return float(value).hex()


def _fields(part: fleet.ShardStep) -> tuple:
    """Everything a shard reports, floats as their bits."""
    sample = part.sample
    if sample is not None:
        census, wears, burn = sample
        sample = (census, [_bits(wear) for wear in wears], _bits(burn))
    return part.functioning, _bits(part.capacity), part.deaths, sample


def _walk(task: ShardTask) -> list[list[fleet.ShardStep]]:
    # Looked up at call time, so a monkeypatched mutant is the one run.
    return list(fleet.walk_shard(task))


def assert_groups_equal_separate_walks(devices: int, shards: int,
                                       group_firsts: list[int],
                                       mode: str,
                                       pending: tuple[bool, ...],
                                       seed: int = 77) -> None:
    """Walk the layout in the groups that start at ``group_firsts``
    (shard indices), then each shard alone; every shard's partials must
    be equal at every step."""
    config = replace(TWIN_CONFIG, devices=devices)
    layout = partition_devices(devices, shards)
    bounds = [0, *group_firsts, shards]
    grouped = [_walk(ShardTask(
        config, mode, seed, layout[first][0], layout[last - 1][1],
        pending, tuple(start for start, _ in layout[first + 1:last])))
        for first, last in zip(bounds, bounds[1:])]
    alone = [_walk(ShardTask(config, mode, seed, start, stop, pending))
             for start, stop in layout]
    for step in range(STEPS):
        parts = [part for walk in grouped for part in walk[step]]
        assert len(parts) == shards
        for shard, part in enumerate(parts):
            (twin,) = alone[shard][step]
            assert _fields(part) == _fields(twin), (step, shard)


@st.composite
def layouts(draw):
    devices = draw(st.integers(1, 24))
    shards = draw(st.integers(1, devices + 3))
    group_firsts = sorted(draw(st.sets(st.integers(1, shards - 1))
                               if shards > 1 else st.just(set())))
    mode = draw(st.sampled_from(MODES))
    pending = tuple(draw(st.lists(st.booleans(), min_size=STEPS,
                                  max_size=STEPS)))
    return devices, shards, group_firsts, mode, pending


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(layout=layouts())
def test_grouped_walk_equals_a_walk_per_shard(layout):
    assert_groups_equal_separate_walks(*layout)


def test_the_twin_sees_deaths_and_samples():
    # The harsh config must exercise the cut: deaths of both causes in
    # several shards of one group, on sampled steps.
    config = replace(TWIN_CONFIG, devices=24)
    layout = partition_devices(24, 4)
    task = ShardTask(config, "regen", 77, 0, 24, (True,) * STEPS,
                     tuple(start for start, _ in layout[1:]))
    steps = _walk(task)
    causes = {cause for step in steps for part in step
              for _, cause in part.deaths}
    dying = {shard for step in steps
             for shard, part in enumerate(step) if part.deaths}
    assert causes == {"afr", "wear"}
    assert len(dying) > 1


# -- seeded mutations --------------------------------------------------------

#: What breaks -> source edits on ``walk_shard``. An edit is
#: ``(old, new)`` on its dedented source; ``old`` must still be there, so
#: a mutation cannot silently stop applying.
MUTATIONS = {
    "a shard's capacity is a slice of the group's running sum": [
        ("_ordered_sum(adv[lo:hi])",
         "float(np.add.accumulate(adv)[hi - 1]"
         " - (np.add.accumulate(adv)[lo - 1] if lo else 0.0))"
         " if hi > lo else 0.0")],
    "every shard reports the group's burn": [
        ("_ordered_sum(burn[lo:hi])", "_ordered_sum(burn)")],
    "deaths stay with the group's first shard": [
        ("by_shard[bisect_right(cuts, death[0])]", "by_shard[0]")],
}


def _mutant(edits: list[tuple[str, str]]):
    source = textwrap.dedent(inspect.getsource(fleet.walk_shard))
    for old, new in edits:
        assert old in source, f"mutation target vanished: {old!r}"
        source = source.replace(old, new, 1)
    namespace: dict = {}
    exec(source, vars(sys.modules[fleet.__name__]), namespace)
    return namespace["walk_shard"]


@pytest.mark.parametrize("name", MUTATIONS)
def test_seeded_mutations_are_caught(name, monkeypatch):
    example = (24, 8, [3], "regen", (True, False) * (STEPS // 2))
    # The comparison passes on the real walk...
    assert_groups_equal_separate_walks(*example)
    # ...and not on the broken one.
    monkeypatch.setattr(fleet, "walk_shard", _mutant(MUTATIONS[name]))
    with pytest.raises(AssertionError):
        assert_groups_equal_separate_walks(*example)


# -- what the grouping buys --------------------------------------------------

def test_one_worker_computes_capacity_once_per_step(monkeypatch):
    # Eight shards on one worker are one step loop: one
    # advertised_bytes call per step, not eight.
    calls = []
    advertised_bytes = FleetRules.advertised_bytes

    def counted(self, *args, **kwargs):
        calls.append(args)
        return advertised_bytes(self, *args, **kwargs)

    monkeypatch.setattr(FleetRules, "advertised_bytes", counted)
    simulate_fleet_sharded(TINY_CONFIG, "regen", seed=77, shards=8, jobs=1)
    assert len(calls) == FleetRules(TINY_CONFIG, "regen").steps


def test_shard_ticks_are_device_shares_of_the_walk():
    # One group of four shards (13 devices: 4, 3, 3, 3): each shard is
    # charged its device share of every step's wall.
    registry = MetricsRegistry()
    with context.scoped(metrics=registry):
        simulate_fleet_sharded(TINY_CONFIG, "shrink", seed=77, shards=4,
                               jobs=1)
    ticks = registry.get("repro_shard_tick_seconds")
    seconds = np.array([ticks.labels(shard=str(shard)).sum
                        for shard in range(4)])
    sizes = np.diff([0, *(stop for _, stop in partition_devices(13, 4))])
    assert seconds.sum() > 0.0
    assert np.allclose(seconds / seconds.sum(), sizes / sizes.sum())

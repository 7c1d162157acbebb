"""Differential test: GC's list victim choice against the array one.

``PageMappedFTL._gc_once`` sweeps dead zero-valid blocks and picks its
victim over Python lists (the closed index's ascending list, counts
read off the kept ``_valid_counts``), and ``GreedyGC.pick`` reads the
victim's capacity alone. ``gc_victim_oracle.py`` keeps the numpy
selection it replaced. Twin devices (same chip seed, same
configuration, an injector and a metrics registry each) take the same
random churn, one collecting through the kernel and one through the
oracle; after every host call each GC pass so far must have chosen the
same victim from the same swept state, and the devices, the
``gc.pick`` faults fired and the ``repro_gc_*`` series must be equal.

The geometry wears out in a few thousand writes, so every walk but the
plain FTL's (which does not die) runs its device to death. Two windows
of refused programs leave each flavour a closed, empty, fully retired
block for the sweep, and ``force_victim`` faults (by ``index`` and by
the fullest block) land between ordinary picks.
``test_seeded_mutations_are_caught`` breaks the kernel two ways — the
last minimum picked, the sweep skipped — and requires the comparison
to notice each.
"""

from __future__ import annotations

import inspect
import textwrap
import types

import numpy as np
import pytest

from repro import context
from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.obs import MetricsRegistry
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.ssd import ftl as ftl_module
from repro.ssd import gc as gc_module
from repro.ssd.cvss import CVSSConfig, CVSSDevice
from repro.ssd.device import BaselineSSD, SSDConfig
from repro.ssd.ftl import FTLConfig, PageMappedFTL
from repro.ssd.gc import GreedyGC

from . import gc_victim_oracle as oracle

GEOMETRY = FlashGeometry(blocks=32, fpages_per_block=8)
POLICY = TirednessPolicy(geometry=GEOMETRY)
MODEL = calibrate_power_law(POLICY, pec_limit_l0=8)
MSIZE = 32

FLAVOURS = ("ftl", "baseline", "cvss", "shrink", "regen")
#: ``gc.pick`` faults: a window forced by position, a window forced to
#: the fullest block, and a late single hit. Two windows of refused
#: programs each retire every page of some block as it fills: closed,
#: fully retired and empty, it is the sweep's to find.
PLAN = FaultPlan(events=(
    FaultSpec(site="chip.program", fault="fail", when=150, count=15),
    FaultSpec(site="chip.program", fault="fail", when=1500, count=15),
    FaultSpec(site="gc.pick", fault="force_victim", when=3, count=2,
              args={"index": 5}),
    FaultSpec(site="gc.pick", fault="force_victim", when=9, count=3),
    FaultSpec(site="gc.pick", fault="force_victim", when=40,
              args={"index": -1}),
))
MAX_CALLS = 1500


def build(flavour: str, chip_seed: int):
    chip = FlashChip(GEOMETRY, rber_model=MODEL, policy=POLICY,
                     seed=chip_seed, variation_sigma=0.3)
    ftl = FTLConfig(overprovision=0.25, buffer_opages=8,
                    gc_reserve_blocks=2)
    if flavour == "ftl":
        return PageMappedFTL(
            chip, int(GEOMETRY.total_opage_slots * 0.6), ftl)
    if flavour == "baseline":
        return BaselineSSD(chip, SSDConfig(ftl=ftl, brick_threshold=0.25))
    if flavour == "cvss":
        return CVSSDevice(chip, CVSSConfig(ftl=ftl))
    return SalamanderSSD(chip, SalamanderConfig(
        msize_lbas=MSIZE, mode=flavour, headroom_fraction=0.25, ftl=ftl))


class Twin:
    """One device, its GC passes logged as ``(type of the victim,
    victim, closed blocks, dead blocks)`` at the moment the victim is
    relocated — after the sweep, before the erase. The type catches a
    numpy scalar victim, which compares equal to the int."""

    def __init__(self, flavour: str, chip_seed: int, gc_once=None) -> None:
        self.registry = MetricsRegistry()
        self.injector = FaultInjector(PLAN)
        with context.scoped(metrics=self.registry, faults=self.injector):
            self.device = build(flavour, chip_seed)
        device = self.device
        if gc_once is not None:
            device._gc_once = types.MethodType(gc_once, device)
        self.passes: list[tuple] = []
        relocate = device._relocate_block

        def logged(block):
            self.passes.append((type(block), block,
                                sorted(device._closed_blocks),
                                sorted(device._dead_blocks)))
            relocate(block)

        device._relocate_block = logged

    def observe(self) -> dict:
        device = self.device
        histogram = self.registry.get(
            "repro_gc_victim_valid_fraction").labels(policy="GreedyGC")
        picks = self.registry.get(
            "repro_gc_victim_picks_total").labels(policy="GreedyGC")
        return {
            "passes": list(self.passes),
            "closed": device._closed_blocks.ordered(),
            "free": device._free_blocks.ordered(),
            "dead": sorted(device._dead_blocks),
            "valid": list(device._valid_counts),
            "l2p": list(device._l2p),
            "erases": list(device.chip._block_pec),
            "stats": device.stats.snapshot(),
            "chip": device.chip.stats.snapshot(),
            "chip_rng": device.chip.rng.bit_generator.state,
            "capacity": device.capacity_lbas,
            "alive": device.is_alive,
            "fraction": (histogram.count, histogram.sum,
                         list(histogram.bucket_counts)),
            "picks": picks.value,
            "fired": [(r.site, r.fault, dict(r.context))
                      for r in self.injector.fired],
        }


def walk(flavour: str, chip_seed: int, seed: int) -> tuple[Twin, Twin]:
    """Random single and ranged writes, the same on both twins, until
    the device dies or ``MAX_CALLS`` calls; compared after every call."""
    kernel = Twin(flavour, chip_seed)
    twin = Twin(flavour, chip_seed, gc_once=oracle.gc_once)
    rng = np.random.default_rng(seed)
    salamander = isinstance(kernel.device, SalamanderSSD)
    for call in range(MAX_CALLS):
        if salamander:
            active = kernel.device.active_minidisks()
            space = (active[int(rng.integers(len(active)))].mdisk_id
                     if active else 0)
            size = MSIZE
        else:
            space, size = None, max(kernel.device.capacity_lbas, 1)
        count = int(rng.integers(1, 5))
        lba = int(rng.integers(max(size - count + 1, 1)))
        address = (lba,) if space is None else (space, lba)
        payloads = [b"%d:%d" % (call, member) for member in range(count)]
        outcomes = []
        for side in (kernel, twin):
            try:
                if count == 1:
                    side.device.write(*address, payloads[0])
                else:
                    side.device.write_range(*address, payloads)
                outcomes.append(None)
            except ReproError as error:
                outcomes.append((type(error), str(error)))
        assert outcomes[0] == outcomes[1], (
            f"call {call} raised {outcomes[0]} through the kernel, "
            f"{outcomes[1]} through the oracle")
        seen, expected = kernel.observe(), twin.observe()
        for key in expected:
            assert seen[key] == expected[key], (
                f"{key} diverged after call {call} (pass "
                f"{len(expected['passes'])})")
        if outcomes[0] is not None and not kernel.device.is_alive:
            break
    kernel.device._audit_fastpath()
    return kernel, twin


@pytest.mark.parametrize("flavour", FLAVOURS)
@pytest.mark.parametrize("chip_seed,seed", [(11, 5), (3, 17)])
def test_list_pick_equals_the_array_pick(flavour, chip_seed, seed):
    kernel, _twin = walk(flavour, chip_seed, seed)
    fired = kernel.injector.fired
    assert len(kernel.passes) > 50
    # Both kinds of forced victim, and picks observed by the metric.
    assert sum(r.site == "gc.pick" for r in fired) == 6
    assert kernel.observe()["fraction"][0] == len(kernel.passes)


def swept_blocks(passes: list[tuple]) -> set[int]:
    """Blocks a pass's sweep moved to the dead set: dead at this pass,
    not at the one before, and not that pass's victim (whose erase may
    find it dead)."""
    swept: set[int] = set()
    before = (None, None, [], [])
    for after in passes:
        swept |= set(after[3]) - set(before[3]) - {before[1]}
        before = after
    return swept


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_the_walks_reach_the_sweep(flavour):
    """Every flavour's walk leaves the sweep a closed, empty, fully
    retired block, and the sweep takes it before the pick."""
    kernel, _twin = walk(flavour, 11, 5)
    swept = swept_blocks(kernel.passes)
    assert swept
    assert swept <= kernel.device._dead_blocks
    assert all(kernel.device.chip.block_fully_retired(block)
               or not kernel.device._block_usable(block)
               for block in swept)


def test_the_pick_reads_lists_and_arrays_alike():
    policy = GreedyGC()
    valid = [7, 2, 9, 2, 5]
    blocks = [10, 11, 12, 13, 14]
    for wrap in (list, np.array):
        assert policy.choose_victim(wrap(blocks), wrap(valid), None) == 11
        assert type(policy.pick(wrap(blocks), wrap(valid), None)) is int


# -- seeded mutations --------------------------------------------------------

#: What breaks -> (flavour, the class, the method, source edits). An edit
#: is ``(old, new)`` on the dedented source; ``old`` must still be
#: there, so a mutation cannot silently stop applying.
MUTATIONS = {
    "the last minimum picked instead of the first": (
        "ftl", GreedyGC, gc_module, "choose_victim", [
            ("indexOf(valid_counts,\n",
             "len(valid_counts) - 1 - indexOf(valid_counts[::-1],\n")]),
    "the sweep skipped": (
        "baseline", PageMappedFTL, ftl_module, "_gc_once", [
            ("if 0 in valid:", "if False:")]),
}


def _mutant(cls, module, method: str, edits: list[tuple[str, str]]):
    source = textwrap.dedent(inspect.getsource(getattr(cls, method)))
    for old, new in edits:
        assert old in source, f"mutation target vanished: {old!r}"
        source = source.replace(old, new, 1)
    namespace: dict = {}
    exec(source, vars(module), namespace)
    return namespace[method]


@pytest.mark.parametrize("name", MUTATIONS)
def test_seeded_mutations_are_caught(name, monkeypatch):
    flavour, cls, module, method, edits = MUTATIONS[name]
    walk(flavour, 11, 5)
    monkeypatch.setattr(cls, method, _mutant(cls, module, method, edits))
    with pytest.raises(AssertionError, match="diverged"):
        walk(flavour, 11, 5)

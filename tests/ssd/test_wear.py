"""Wear leveling on allocation: the least-worn pick and its twin.

``PageMappedFTL._open_new_block`` picks the first free block of least
erase count straight off ``BlockIndex.ordered()`` and the chip's one
per-block P/E record (``FlashChip._block_pec``). ``wear_oracle.py``
keeps the ``np.argmin`` pick it replaced, over the free index's array
view and the FTL's own erase counts. Twin devices (same chip seed, same
configuration, an injector each) take the same random churn to death,
one opening blocks through the kernel and one through the oracle; after
every host call each block opened so far must be the same, and the
devices — the oracle's erase counts against the chip's record included —
must be equal. ``test_seeded_mutations_are_caught`` breaks the kernel
two ways — the last minimum picked, wear ignored — and requires the
comparison to notice each.
"""

from __future__ import annotations

import inspect
import textwrap
import types

import numpy as np
import pytest

from repro import context
from repro.errors import OutOfSpaceError, ReproError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.salamander.device import SalamanderSSD
from repro.ssd import ftl as ftl_module
from repro.ssd.ftl import PageMappedFTL

from . import wear_oracle as oracle
from .test_gc_victim import FLAVOURS, MSIZE, build
from .wear_oracle import select_min_wear_block


class TestSelectMinWear:
    def test_picks_lowest_erase_count(self):
        counts = np.array([5, 1, 9, 0])
        assert select_min_wear_block(np.array([0, 1, 2]), counts) == 1

    def test_only_considers_free_blocks(self):
        counts = np.array([5, 1, 9, 0])
        # Block 3 has the globally lowest count but is not free.
        assert select_min_wear_block(np.array([0, 2]), counts) == 0

    def test_empty_pool_raises(self):
        with pytest.raises(OutOfSpaceError):
            select_min_wear_block(np.array([], dtype=np.int64),
                                  np.array([1, 2]))


#: The devices are ``test_gc_victim.py``'s, which wear out in a few
#: thousand writes. Two refused erases (the block is condemned, its
#: count does not move; a walk may die before the second) and a window
#: of refused programs.
PLAN = FaultPlan(events=(
    FaultSpec(site="chip.erase", fault="fail", when=30),
    FaultSpec(site="chip.erase", fault="fail", when=90),
    FaultSpec(site="chip.program", fault="fail", when=400, count=10),
))
MAX_CALLS = 4000


class Twin:
    """One device, each block it opens logged as ``(key, type of the
    block, block, least-worn free blocks tied)`` — the type catches a
    numpy scalar, which compares equal to the int. With
    ``oracle_side``, it opens blocks through
    ``wear_oracle.open_new_block`` and counts its own erases."""

    def __init__(self, flavour: str, chip_seed: int,
                 oracle_side: bool = False) -> None:
        self.injector = FaultInjector(PLAN)
        with context.scoped(faults=self.injector):
            self.device = build(flavour, chip_seed)
        device = self.device
        self.counts = None
        if oracle_side:
            self.counts = oracle.count_erases(device)
            device.oracle_erase_counts = self.counts
            device._open_new_block = types.MethodType(
                oracle.open_new_block, device)
        self.opens: list[tuple] = []
        open_new_block = device._open_new_block

        def logged(key):
            pecs = device.chip._block_pec
            least = min(map(pecs.__getitem__, device._free_blocks.ordered()),
                        default=None)
            ties = sum(pecs[b] == least for b in device._free_blocks.ordered())
            open_new_block(key)
            block = device._open[key][0]
            self.opens.append((key, type(block), block, ties))

        device._open_new_block = logged

    def observe(self) -> dict:
        device = self.device
        return {
            "opens": list(self.opens),
            "open": dict(device._open),
            "free": device._free_blocks.ordered(),
            "closed": device._closed_blocks.ordered(),
            "dead": sorted(device._dead_blocks),
            "valid": list(device._valid_counts),
            "l2p": list(device._l2p),
            "pec": list(device.chip._block_pec),
            "levels": list(device.chip._level),
            "stats": device.stats.snapshot(),
            "chip": device.chip.stats.snapshot(),
            "chip_rng": device.chip.rng.bit_generator.state,
            "capacity": device.capacity_lbas,
            "alive": device.is_alive,
            "fired": [(r.site, r.fault, dict(r.context))
                      for r in self.injector.fired],
        }


def walk(flavour: str, chip_seed: int, seed: int) -> tuple[Twin, Twin]:
    """Random single and ranged writes, the same on both twins, until
    the device dies or ``MAX_CALLS`` calls; compared after every call."""
    kernel = Twin(flavour, chip_seed)
    twin = Twin(flavour, chip_seed, oracle_side=True)
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
                f"{key} diverged after call {call} (open "
                f"{len(expected['opens'])})")
        # The chip's one record is the count the FTL used to keep.
        assert seen["pec"] == twin.counts.tolist(), (
            f"pec diverged from the FTL's erase count after call {call}")
        if outcomes[0] is not None and not kernel.device.is_alive:
            break
    kernel.device._audit_fastpath()
    return kernel, twin


@pytest.mark.parametrize("flavour", FLAVOURS)
@pytest.mark.parametrize("chip_seed,seed", [(11, 5), (3, 17)])
def test_list_pick_equals_the_argmin_pick(flavour, chip_seed, seed):
    kernel, _twin = walk(flavour, chip_seed, seed)
    opens = kernel.opens
    assert len(opens) > 50
    # Many opens choose among several equally worn blocks, so the first
    # minimum is what is being compared, not a unique one.
    assert sum(ties > 1 for *_, ties in opens) > len(opens) // 4
    # A refused erase landed, so a condemned block was in play.
    assert any(r.site == "chip.erase" for r in kernel.injector.fired)
    if flavour != "ftl":
        assert not kernel.device.is_alive


# -- seeded mutations --------------------------------------------------------

#: What breaks -> (flavour, source edits of ``_open_new_block``). An edit
#: is ``(old, new)`` on the dedented source; ``old`` must still be there,
#: so a mutation cannot silently stop applying.
MUTATIONS = {
    "the last minimum picked instead of the first": (
        "ftl", [("min(usable, key=", "min(usable[::-1], key=")]),
    "the lowest free block taken, whatever its wear": (
        "baseline", [("min(usable, key=self.chip._block_pec.__getitem__)",
                      "usable[0]")]),
}


def _mutant(edits: list[tuple[str, str]]):
    method = "_open_new_block"
    source = textwrap.dedent(inspect.getsource(
        getattr(PageMappedFTL, method)))
    for old, new in edits:
        assert old in source, f"mutation target vanished: {old!r}"
        source = source.replace(old, new, 1)
    namespace: dict = {}
    exec(source, vars(ftl_module), namespace)
    return namespace[method]


@pytest.mark.parametrize("name", MUTATIONS)
def test_seeded_mutations_are_caught(name, monkeypatch):
    flavour, edits = MUTATIONS[name]
    walk(flavour, 11, 5)
    monkeypatch.setattr(PageMappedFTL, "_open_new_block", _mutant(edits))
    with pytest.raises(AssertionError, match="diverged"):
        walk(flavour, 11, 5)


# -- the GC reserve ------------------------------------------------------------

def _open_at_the_reserve(key: str) -> tuple[PageMappedFTL, list[int]]:
    """A fresh plain FTL cut down to exactly ``gc_reserve_blocks`` free
    blocks (the rest taken out of the free index by hand: no walk gets
    there, ``_ensure_free_space`` collects long before), then a block
    opened for ``key``. Returns the FTL and the free blocks before."""
    ftl = build("ftl", 11)
    free = list(ftl._free_blocks.ordered())
    for block in free[ftl.config.gc_reserve_blocks:]:
        ftl._free_blocks.discard(block)
    before = list(ftl._free_blocks.ordered())
    assert len(before) == ftl.config.gc_reserve_blocks
    ftl._open_new_block(key)
    return ftl, before


def test_a_host_block_is_refused_inside_the_gc_reserve():
    with pytest.raises(OutOfSpaceError, match="outside the GC reserve"):
        _open_at_the_reserve("host0")
    # GC may dip into the reserve: it takes the least-worn reserved block.
    ftl, before = _open_at_the_reserve("gc")
    assert ftl._open["gc"] == (before[0], 0)
    assert ftl._free_blocks.ordered() == before[1:]


def test_a_reserve_counted_one_short_is_caught(monkeypatch):
    monkeypatch.setattr(PageMappedFTL, "_open_new_block", _mutant(
        [("len(usable) <= self.config.gc_reserve_blocks",
          "len(usable) < self.config.gc_reserve_blocks")]))
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        test_a_host_block_is_refused_inside_the_gc_reserve()

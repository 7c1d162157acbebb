"""Differential test: the range read kernel against the per-LBA loop.

``PageMappedFTL.read_range`` slices the map once, probes the write
buffer in place and, on a chip that draws, disturbs, checks and traces
nothing, senses each fPage in place from the chip's kept cost;
``FlashChip.read``, point or whole-fPage, takes a written page's cost
from ``_read_cost``, which remembers it until the page's data goes.
``read_loop_oracle.py`` holds what they replaced: the per-LBA resolve
loop and the per-call derivation. Twin devices (same chip seed,
same configuration, a fault injector, clock and reqtrace context each)
take the same calls, one through the kernel and one through the oracle,
and after *every* call everything a host or a later call could observe
must be equal: the returned payloads, the exception (type and message),
every ``SSDStats`` and ``ChipStats`` field, both latency reservoirs down
to their decimation cursor, the per-channel busy time, the chip's RNG
state, stored data and disturb counters, the maps, the reqtrace context.

A walk interleaves hypothesis-drawn reads, ranged reads, trims, flushes,
forced collections, clock ticks and ``inject_errors`` / reqtrace toggles
with a steady churn of ranged writes, on a geometry that wears out in
~1,500 writes — so pages are erased, levelled up and retired under the
remembered costs, LBAs are lost and rewritten, and the device dies and
is called four more times. ``test_scripted_walks_reach_every_case`` pins
that the cases the kernel could get wrong really occur;
``test_seeded_mutations_are_caught`` breaks the kernel and the chip
eleven ways and requires the comparison (or the audit) to notice each.
"""

from __future__ import annotations

import inspect
import textwrap
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import context
from repro.errors import (
    ConfigError,
    InvalidLBAError,
    OutOfSpaceError,
    ProgramError,
    UncorrectableError,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.flash import chip as chip_module
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.obs.reqtrace import ReqTracer
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.ssd import ftl as ftl_module
from repro.ssd.cvss import CVSSConfig, CVSSDevice
from repro.ssd.device import BaselineSSD, SSDConfig
from repro.ssd.ftl import LOST, FTLConfig, PageMappedFTL

from .read_loop_oracle import OracleChip, oracle_device_class
# The write kernel's rig: 16x8, three P/E cycles per block, so wear
# events arrive within ~1,400 writes.
from .test_write_kernel import GEOMETRY, MODEL, MSIZE, POLICY, _reservoir

SPF = GEOMETRY.opages_per_fpage
#: Level 0 tolerates an RBER of 4.7e-3: ~50 senses of a block, or two
#: and a half days of retention, take a fresh page past it.
DISTURB_RBER = 1e-4
RETENTION_RBER_PER_DAY = 2e-3

FLAVOURS = ("ftl", "baseline", "cvss", "shrink", "regen")
#: How a call picks its first LBA: anywhere; the previous call's range
#: again (just written: still partly buffered); half a range further on;
#: or so that the range runs off the end of the address space.
PLACEMENTS = ("fresh", "repeat", "shifted", "end")
#: Calls a walk keeps making once its device has died.
AFTERLIFE = 4
#: Ranged write between any two drawn steps: what wears the device out.
CHURN = 8


@dataclass(frozen=True)
class Rig:
    """What the twins are built with."""

    flavour: str = "ftl"
    chip_seed: int = 11
    inject: bool = True
    disturb: bool = False
    retention: bool = False
    autoscrub: bool = False
    traced: bool = False
    plan: FaultPlan | None = None


class Clock:
    now = 0.0


def build(rig: Rig, oracle: bool):
    """One twin and the clock its chip reads: ``(device, clock)``."""
    clock = Clock()
    chip = (OracleChip if oracle else FlashChip)(
        GEOMETRY, rber_model=MODEL, policy=POLICY, seed=rig.chip_seed,
        variation_sigma=0.3, inject_errors=rig.inject,
        read_disturb_rber=DISTURB_RBER if rig.disturb else 0.0,
        retention_rber_per_day=(RETENTION_RBER_PER_DAY
                                if rig.retention else 0.0),
        now_fn=(lambda: clock.now) if rig.retention else None)
    ftl = FTLConfig(overprovision=0.25, buffer_opages=8,
                    gc_reserve_blocks=2,
                    scrub_interval_writes=5 if rig.autoscrub else 0,
                    scrub_batch_fpages=8)
    if rig.flavour == "ftl":
        cls, args = PageMappedFTL, (
            int(GEOMETRY.total_opage_slots * 0.6), ftl)
    elif rig.flavour == "baseline":
        cls, args = BaselineSSD, (SSDConfig(ftl=ftl),)
    elif rig.flavour == "cvss":
        cls, args = CVSSDevice, (CVSSConfig(ftl=ftl),)
    else:
        cls, args = SalamanderSSD, (SalamanderConfig(
            msize_lbas=MSIZE, mode=rig.flavour, headroom_fraction=0.25,
            ftl=ftl),)
    if oracle:
        cls = oracle_device_class(cls)
    return cls(chip, *args), clock


def observe(device, injector, active) -> dict:
    """Everything the kernel could get wrong, as plain comparable data."""
    stats, chip = device.stats, device.chip
    state = {
        "stats": {f.name: getattr(stats, f.name) for f in fields(stats)
                  if not f.name.endswith("_latency")},
        "write_latency": _reservoir(stats.write_latency),
        "read_latency": _reservoir(stats.read_latency),
        "l2p": list(device._l2p),
        "p2l": list(device._p2l),
        "buffer": list(device.buffer._entries.items()),
        "scrub": (device._scrub_cursor, device._writes_since_scrub),
        "chip": {f.name: getattr(chip.stats, f.name)
                 for f in fields(chip.stats)},
        "channel_busy_us": list(chip.channel_busy_us),
        "chip_rng": chip.rng.bit_generator.state,
        # Keyed by written fPage; an injected corruption lands here.
        "chip_data": {fpage: chip._data[fpage] for fpage in _written(chip)},
        "disturb": chip._reads_since_erase.tolist(),
        "levels": list(chip._level),
        "states": chip.state_array().tolist(),
        "inject_errors": chip.inject_errors,
        "alive": device.is_alive,
        "capacity": device.capacity_lbas,
        "faults": injector.summary() if injector is not None else None,
        "reqtrace": (dict(active.segments), dict(active.counts),
                     active.level_max),
    }
    if isinstance(device, SalamanderSSD):
        state["events"] = list(device.events)
        state["minidisks"] = device._table.rows()
    return state


def _written(chip) -> list[int]:
    return np.flatnonzero(chip.state_array() == 1).tolist()


class Twins:
    """One device read through the kernel, its twin through the per-LBA
    loop; :meth:`call` makes the same call on both and compares."""

    def __init__(self, rig: Rig) -> None:
        self.sides = [self._build(rig, oracle) for oracle in (False, True)]
        self.kernel = self.sides[0]["device"]
        self.oracle = self.sides[1]["device"]
        assert type(self.oracle.chip) is OracleChip
        self.salamander = isinstance(self.kernel, SalamanderSSD)
        # ``chip.read`` calls on the kernel side: every sense but those
        # ``read_range`` takes in place.
        self.chip_reads = 0
        sense = self.kernel.chip.read

        def counted(fpage, slot=None):
            self.chip_reads += 1
            return sense(fpage, slot)

        self.kernel.chip.read = counted
        #: (mdisk_id or None, lba) of the last placed call.
        self.last = (0 if self.salamander else None, 0)
        self._compare("construction")

    @staticmethod
    def _build(rig: Rig, oracle: bool) -> dict:
        # Devices bind the injector and the tracer at construction; each
        # twin gets its own, so hit counters and contexts are not shared.
        tracer = ReqTracer(seed=0, every=1)
        injector = None if rig.plan is None else FaultInjector(rig.plan)
        with context.scoped(reqtrace=tracer, faults=injector):
            device, clock = build(rig, oracle)
        active = tracer.begin()
        if rig.traced:
            tracer.active = active
        return {"device": device, "clock": clock, "injector": injector,
                "tracer": tracer, "context": active}

    def _compare(self, what: str) -> None:
        seen, expected = (observe(side["device"], side["injector"],
                                  side["context"]) for side in self.sides)
        for key in expected:
            assert seen[key] == expected[key], f"{key} diverged after {what}"
        self.kernel.chip._audit_read_costs()

    # -- what is not a device call ---------------------------------------

    def toggle_inject(self) -> None:
        for side in self.sides:
            chip = side["device"].chip
            chip.inject_errors = not chip.inject_errors

    def toggle_trace(self) -> None:
        for side in self.sides:
            tracer = side["tracer"]
            tracer.active = (side["context"] if tracer.active is None
                             else None)

    def pass_days(self, days: float) -> None:
        for side in self.sides:
            side["clock"].now += days * 86400.0

    # -- placement -------------------------------------------------------

    def spaces(self) -> list[tuple[int | None, int]]:
        """(mdisk_id or None, size) of every address space still open."""
        if self.salamander:
            return [(m.mdisk_id, m.size_lbas)
                    for m in self.kernel.active_minidisks()]
        return [(None, self.kernel.capacity_lbas)]

    def place(self, placement: str, count: int, rng) -> tuple:
        """``(mdisk_id or None, lba)`` for a ``count``-member range."""
        # An exhausted Salamander device still has minidisk 0 to refuse,
        # a shrunk-to-nothing CVSS device LBA 0.
        spaces = self.spaces() or [(0, MSIZE)]
        space, size = spaces[int(rng.integers(len(spaces)))]
        limit = MSIZE if self.salamander else self.kernel.n_lbas
        if placement == "end":
            return space, max(0, limit - count + 1 + int(rng.integers(2)))
        if placement == "fresh":
            lba = int(rng.integers(max(1, size - count + 1)))
        else:
            space, lba = self.last
            if placement == "shifted":
                lba += count // 2
            lba = max(0, min(lba, limit - count))
        self.last = (space, lba)
        return space, lba

    def flat(self, space, lba: int) -> int:
        return lba if space is None else space * MSIZE + lba

    def shape_of(self, space, lba: int, count: int) -> dict:
        """What a ranged read at ``(space, lba)`` is about to straddle."""
        device, first = self.kernel, self.flat(space, lba)
        if not 0 <= first <= first + count <= device.n_lbas:
            return {}
        slots = device._l2p[first:first + count]
        buffered = [first + i in device.buffer for i in range(count)]
        fpages = [slot // SPF for slot, hit in zip(slots, buffered)
                  if slot >= 0 and not hit]
        return {
            "buffered": sum(buffered),
            "buffered_over_lost": sum(
                hit and slot == LOST for slot, hit in zip(slots, buffered)),
            "lost_members": sum(slot == LOST and not hit
                                for slot, hit in zip(slots, buffered)),
            "unmapped": sum(slot == -1 and not hit
                            for slot, hit in zip(slots, buffered)),
            "flash": len(fpages),
            "fpages": len(set(fpages)),
        }

    # -- the call --------------------------------------------------------

    def call(self, method: str, space, *args) -> dict:
        """``device.method(*address, *args)`` on both twins; returns what
        the kernel side saw."""
        address = args if space is None else (space, *args)
        what = f"{method}{address}"
        lost = self.kernel.stats.lost_opages
        senses = self.kernel.chip.stats.reads
        chip_reads = self.chip_reads
        outcomes = []
        for side in self.sides:
            try:
                outcomes.append(
                    ("ok", getattr(side["device"], method)(*address)))
            except Exception as error:  # noqa: BLE001 - compared below
                outcomes.append((type(error), str(error)))
        assert outcomes[0] == outcomes[1], (
            f"{what} gave {outcomes[0]!r} from the kernel, "
            f"{outcomes[1]!r} from the per-LBA loop")
        self._compare(what)
        status, value = outcomes[0]
        return {"method": method, "error": None if status == "ok" else status,
                "result": value if status == "ok" else None,
                "message": None if status == "ok" else value,
                "lost": self.kernel.stats.lost_opages - lost,
                "senses": self.kernel.chip.stats.reads - senses,
                "chip_reads": self.chip_reads - chip_reads}


def walk(twins: Twins, steps: list[tuple], seed: int,
         max_steps: int = 260) -> list[dict]:
    """Cycle through ``steps`` — ``(kind, count, placement)`` — with a
    ``CHURN``-member ranged write after each, until the device has been
    dead for ``AFTERLIFE`` steps (a plain FTL does not die: until it has
    refused that many writes)."""
    rng = np.random.default_rng(seed)
    log: list[dict] = []
    refused = 0
    for index in range(max_steps):
        kind, count, placement = steps[index % len(steps)]
        if kind == "inject":
            twins.toggle_inject()
        elif kind == "trace":
            twins.toggle_trace()
        elif kind == "day":
            twins.pass_days(count)
        elif kind == "flush":
            log.append(twins.call("flush", None))
        elif kind == "gc":
            log.append(twins.call("_gc_once", None))
        else:
            space, lba = twins.place(placement, count, rng)
            if kind == "read_range":
                shape = twins.shape_of(space, lba, count)
                log.append(twins.call("read_range", space, lba, count))
                log[-1].update(shape, count=count)
                if log[-1]["error"] is None:
                    assert len(log[-1]["result"]) == count
            elif kind == "write":
                log.append(twins.call(
                    "write", space, lba, f"{index}:w".encode()))
            else:                   # read, trim
                log.append(twins.call(kind, space, lba))
        space, lba = twins.place("fresh", CHURN, rng)
        churn = twins.call("write_range", space, lba, [
            f"{index}:{member}".encode() for member in range(CHURN)])
        log.append(churn)
        if not twins.kernel.is_alive or churn["error"] is OutOfSpaceError:
            refused += 1
            if refused == AFTERLIFE:
                break
    twins.kernel._audit_fastpath()
    twins.oracle._audit_fastpath()
    return log


placements = st.sampled_from(PLACEMENTS)
step = st.one_of(
    st.tuples(st.just("read_range"), st.integers(1, 24), placements),
    st.tuples(st.sampled_from(("read", "write", "trim")), st.just(1),
              placements),
    st.tuples(st.sampled_from(("flush", "gc", "inject", "trace")),
              st.just(0), st.just("fresh")),
    st.tuples(st.just("day"), st.integers(1, 4), st.just("fresh")))
#: ``chip.read`` faults: a point ``read`` (host or GC) hits once per
#: oPage, a whole-fPage ``read`` once per sense; a ``corrupt`` hit flips a
#: byte of the stored page itself.
read_fault = st.builds(
    FaultSpec, site=st.just("chip.read"),
    fault=st.sampled_from(("uncorrectable", "corrupt")),
    when=st.integers(1, 400), count=st.integers(1, 3),
    args=st.fixed_dictionaries({"slot": st.integers(0, 5),
                                "byte": st.integers(0, 4095)}))
erase_fault = st.builds(
    FaultSpec, site=st.just("chip.erase"), fault=st.just("fail"),
    when=st.integers(1, 60), count=st.integers(1, 2))
rigs = st.builds(
    Rig, flavour=st.sampled_from(FLAVOURS), chip_seed=st.integers(0, 2**16),
    inject=st.booleans(), disturb=st.booleans(), retention=st.booleans(),
    autoscrub=st.booleans(), traced=st.booleans(),
    plan=st.one_of(st.none(), st.builds(
        FaultPlan, events=st.lists(st.one_of(read_fault, erase_fault),
                                   min_size=1, max_size=4).map(tuple))))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(rig=rigs, steps=st.lists(step, min_size=1, max_size=8),
       seed=st.integers(0, 2**16))
def test_kernel_equals_the_per_lba_loop(rig, steps, seed):
    walk(Twins(rig), steps, seed)


#: A fixed mix: long ranges over what the churn just wrote (buffer and
#: flash), ranges elsewhere (flash and unmapped), point reads, a trim, a
#: range off the end, a forced collection, the toggles and the clock.
SCRIPT = [("read_range", 12, "repeat"), ("read_range", 24, "fresh"),
          ("read", 1, "repeat"), ("write", 1, "shifted"),
          ("read_range", 7, "shifted"), ("write", 1, "fresh"),
          ("read_range", 4, "end"), ("trim", 1, "repeat"),
          ("read_range", 16, "fresh"), ("gc", 0, "fresh"),
          ("write", 1, "repeat"), ("read_range", 9, "repeat"),
          ("inject", 0, "fresh"), ("read_range", 5, "fresh"),
          ("day", 2, "fresh"), ("trace", 0, "fresh"), ("flush", 0, "fresh")]
#: Bursts of failed senses (ranged reads, point reads and GC's alike:
#: pages are lost, then read as lost, then rewritten), silent corruption,
#: and a refused erase, which retires pages still holding (stale) data.
SCRIPT_PLAN = FaultPlan(events=(
    FaultSpec(site="chip.read", fault="uncorrectable", when=40, count=30),
    FaultSpec(site="chip.read", fault="corrupt", when=100, count=20,
              args={"slot": 1, "byte": 7}),
    FaultSpec(site="chip.read", fault="uncorrectable", when=200, count=30),
    FaultSpec(site="chip.erase", fault="fail", when=8)))


@pytest.mark.parametrize("flavour", FLAVOURS)
@pytest.mark.parametrize("dynamic", (False, True),
                         ids=("static", "disturb+retention+autoscrub"))
def test_scripted_walks_reach_every_case(flavour, dynamic):
    """The script really produces the ranges the kernel could get wrong
    (and the kernel still equals the loop through all of them)."""
    twins = Twins(Rig(flavour, disturb=dynamic, retention=dynamic,
                      autoscrub=dynamic, traced=True, plan=SCRIPT_PLAN))
    log = walk(twins, SCRIPT, seed=5)
    device = twins.kernel
    ranges = [entry for entry in log if entry["method"] == "read_range"]
    served = [entry for entry in ranges if entry["error"] is None]
    # Buffer, flash and unmapped members in one range; fPages wanted by
    # several members.
    assert any(e["buffered"] and e["flash"] and e["unmapped"]
               for e in served)
    assert any(e["flash"] > e["fpages"] > 1 for e in served)
    # A failed sense loses every member wanted from that fPage, no more.
    failed = [e for e in ranges if e["error"] is UncorrectableError
              and e["senses"]]
    assert failed and any(e["lost"] > 1 for e in failed)
    # A LOST member refuses the range before any sense is charged...
    refused = [e for e in ranges if e.get("lost_members") and not e["senses"]
               and e["error"] is UncorrectableError]
    assert refused and all("data lost to an earlier media error"
                           in e["message"] for e in refused)
    # ...unless the buffer holds a newer copy of it.
    assert any(e.get("buffered_over_lost") for e in served)
    # Off the end: of the device, or of the minidisk.
    assert any(e["error"] in (InvalidLBAError, ConfigError) for e in ranges)
    assert device.stats.erases > 5 and device.stats.retired_fpages
    if not dynamic:
        # Costs were remembered, and dropped with the data they described.
        assert device.chip._read_costs
        assert set(device.chip._read_costs) <= set(_written(device.chip))
    else:
        assert not device.chip._read_costs
        assert device.stats.wear_relocations       # the sweep ran in reads
    if flavour != "ftl":
        assert not device.is_alive
    # A fault injector (and, when dynamic, read disturb) keeps every
    # sense on ``chip.read``...
    assert all(e["chip_reads"] == e["senses"] for e in ranges)
    if dynamic:
        return
    # ...and without one the sense is taken in place while the chip
    # draws no error and traces no request, through ``chip.read`` once
    # the toggles turn either on.
    ranges = [entry for entry in walk(Twins(Rig(flavour, inject=False)),
                                      SCRIPT, seed=5)
              if entry["method"] == "read_range" and entry["senses"]]
    assert any(e["chip_reads"] == 0 for e in ranges)
    assert any(e["chip_reads"] == e["senses"] for e in ranges)


def test_an_fpage_wanted_non_adjacently_is_sensed_once():
    """LBAs 0, 2 and 5 are rewritten into one fPage while 1, 3 and 4, 6,
    7 stay where the first write put them: the range leaves that fPage
    and comes back to it, twice, and still senses it once."""
    twins = Twins(Rig("ftl"))
    twins.call("write_range", None, 0,
               [f"old{member}".encode() for member in range(8)])
    twins.call("flush", None)
    for lba in (0, 2, 5):
        twins.call("write", None, lba, f"new{lba}".encode())
    twins.call("flush", None)
    fpages = [slot // SPF for slot in twins.kernel._l2p[:8]]
    assert fpages == [2, 0, 2, 0, 1, 2, 1, 1]
    seen = twins.call("read_range", None, 0, 8)
    assert seen["senses"] == 3
    assert [page.rstrip(b"\0").decode() for page in seen["result"]] == [
        "new0", "old1", "new2", "old3", "old4", "new5", "old6", "old7"]
    # First-touched order: the reservoir's one sample is summed in it.
    chip = twins.kernel.chip
    assert twins.kernel.stats.read_latency.total == sum(
        chip._read_costs[fpage][5] for fpage in (2, 0, 1))


def test_a_corrupt_hit_inside_read_fpage_returns_the_corrupted_page():
    plan = FaultPlan(events=(FaultSpec(
        site="chip.read", fault="corrupt", when=2,
        args={"slot": 2, "byte": 5, "mask": 0x0F}),))
    twins = Twins(Rig("ftl", inject=False, plan=plan))
    payloads = [bytes([65 + member]) * 16 for member in range(8)]
    twins.call("write_range", None, 0, payloads)
    twins.call("flush", None)
    clean = twins.call("read_range", None, 0, 4)["result"]
    assert [page[:16] for page in clean] == payloads[:4]
    # The second sense is hit: the page comes back already corrupted, and
    # stays so (the damage is on the media), remembered cost or not.
    for _ in range(2):
        dirty = twins.call("read_range", None, 0, 4)["result"]
        assert dirty[2][5] == ord("C") ^ 0x0F
        assert [page for i, page in enumerate(dirty) if i != 2] == [
            page for i, page in enumerate(clean) if i != 2]
    assert twins.call("read", None, 2)["result"] == dirty[2]


def test_a_scanned_device_is_scrubbed():
    """``read_range`` is a host operation and ticks the autoscrubber, as
    ``read`` always did: a device that is only scanned must still sweep.
    ABL-FTL's read-disturb chip, half the LBAs written, random aligned
    4-LBA scans: before the fix this lost 208 oPages to 494 failed
    requests and relocated nothing."""
    geometry = FlashGeometry(blocks=32, fpages_per_block=8)
    chip = FlashChip(geometry, seed=1, variation_sigma=0.0,
                     read_disturb_rber=3e-6)
    device = PageMappedFTL.for_chip(chip, FTLConfig(
        overprovision=0.25, buffer_opages=8, scrub_interval_writes=64,
        scrub_batch_fpages=64))
    working_set = device.n_lbas // 2
    for lba in range(working_set):
        device.write(lba, f"v{lba}".encode())
    device.flush()
    rng = np.random.default_rng(3)
    for _ in range(24_000):
        device.read_range(4 * int(rng.integers(0, working_set // 4)), 4)
    assert device.stats.wear_relocations > 0
    assert device.stats.lost_opages == 0
    device._audit_fastpath()


# -- seeded mutations --------------------------------------------------------

RANGE, CHIP = (PageMappedFTL, ftl_module), (FlashChip, chip_module)
STATIC = Rig("regen", traced=True, plan=SCRIPT_PLAN)
#: No injector, no disturb, errors and tracing toggled by the script: the
#: in-place sense and ``chip.read`` both run (the scripted walks pin it).
IN_PLACE = Rig("regen", inject=False)
#: What breaks -> (the rig whose scripted walk must notice, the class
#: and method, source edits). An edit is ``(old, new)`` on the dedented
#: source of the method; ``old`` must still be there, so a mutation
#: cannot silently stop applying.
MUTATIONS = {
    "cost not dropped on erase": (STATIC, CHIP, "erase", [
        ("self._forget_read_costs(range(start, stop))", "pass")]),
    "cost not dropped on retire": (STATIC, CHIP, "retire", [
        ("self._forget_read_costs((fpage,))", "pass")]),
    "cost stored on a read-disturb chip": (
        Rig("ftl", disturb=True), CHIP, "_read_cost", [
            ("if self.read_disturb_rber == 0 and", "if True or")]),
    "buffer probed after the LOST check": (STATIC, RANGE, "read_range", [
        ("if slot == LOST and buffered_at(lba + offset) is None:",
         "if slot == LOST:")]),
    "map sliced before the autoscrub tick": (
        Rig("ftl", disturb=True, retention=True, autoscrub=True), RANGE,
        "read_range", [
            ("self._maybe_autoscrub()\n", "pass\n"),
            ("slots = self._l2p[lba:lba + count]\n",
             "slots = self._l2p[lba:lba + count]\n"
             "    self._maybe_autoscrub()\n")]),
    "one latency sample per fPage": (STATIC, RANGE, "read_range", [
        ("total_latency += latency",
         "self.stats.read_latency.add(latency)"),
        ("if sensed:", "if False:")]),
    "only the first wanted LBA lost": (STATIC, RANGE, "read_range", [
        # The first touch is the first member wanting the fPage.
        ("for member, wanted in enumerate(slots):",
         "for member, wanted in enumerate(slots[:offset + 1]):")]),
    "in-place sense skips read_retries": (IN_PLACE, RANGE, "read_range", [
        ("chip_stats.read_retries += retries", "pass")]),
    "in-place sense charges no channel": (IN_PLACE, RANGE, "read_range", [
        ("chip.channel_busy_us[channel] += latency", "pass")]),
    "in-place sense taken with inject_errors on": (
        IN_PLACE, RANGE, "read_range", [
            ("chip.inject_errors or chip.read_disturb_rber",
             "chip.read_disturb_rber")]),
    "in-place sense taken for a sampled request": (
        IN_PLACE, RANGE, "read_range", [
            ("or rt is not None and rt.active is not None", "or False")]),
}


def _mutant(owner, method: str, edits: list[tuple[str, str]]):
    cls, module = owner
    source = textwrap.dedent(inspect.getsource(getattr(cls, method)))
    for old, new in edits:
        assert old in source, f"mutation target vanished: {old!r}"
        source = source.replace(old, new, 1)
    namespace: dict = {}
    exec(source, vars(module), namespace)
    return namespace[method]


@pytest.mark.parametrize("name", MUTATIONS)
def test_seeded_mutations_are_caught(name, monkeypatch):
    rig, owner, method, edits = MUTATIONS[name]
    # The walk passes on the real code...
    walk(Twins(rig), SCRIPT, seed=5)
    # ...and not on the broken one (the oracle classes override or never
    # reach what is patched, so only the kernel twin is broken).
    monkeypatch.setattr(owner[0], method, _mutant(owner, method, edits))
    with pytest.raises(AssertionError,
                       match="diverged|from the kernel|remembered"):
        walk(Twins(rig), SCRIPT, seed=5)


#: Stale costs the per-call audit reports first are wrong answers too: with
#: the audit out of the way the comparison itself notices them. (A cost
#: left on a *retired* page is the exception — no FTL reads a retired page
#: again — so there the audit is the only net.)
@pytest.mark.parametrize("name", ("cost not dropped on erase",
                                  "cost stored on a read-disturb chip"))
def test_stale_costs_also_show_in_the_comparison(name, monkeypatch):
    rig, owner, method, edits = MUTATIONS[name]
    monkeypatch.setattr(FlashChip, "_audit_read_costs", lambda self: None)
    monkeypatch.setattr(owner[0], method, _mutant(owner, method, edits))
    with pytest.raises(AssertionError, match="diverged|from the kernel"):
        walk(Twins(rig), SCRIPT, seed=5)


# -- the remembered cost, at the chip ----------------------------------------

def _programmed_chip(**kwargs) -> FlashChip:
    chip = FlashChip(GEOMETRY, rber_model=MODEL, policy=POLICY, seed=11,
                     variation_sigma=0.3, inject_errors=False, **kwargs)
    chip.program(0, [b"a", b"b", b"c", b"d"])
    return chip


def test_a_cost_lives_from_first_read_to_erase_or_retire():
    chip = _programmed_chip()
    assert not chip._read_costs               # programming remembers nothing
    _, point = chip.read(0, 1)
    level, slots, rber, retries, opage_us, fpage_us, channel = (
        chip._read_costs[0])
    assert (level, slots, channel) == (0, 4, 0)
    assert rber == chip.rber_of(0) and opage_us == point
    assert chip.read(0)[1] == fpage_us > opage_us
    assert chip.read(0)[0] == (b"a", b"b", b"c", b"d")   # as written
    chip._audit_read_costs()
    chip.erase(0)
    assert not chip._read_costs
    with pytest.raises(ProgramError, match="not written"):
        chip.read(0, 1)
    # One more cycle of wear: the next tenure's cost is derived afresh.
    chip.program(0, [b"a", b"b", b"c", b"d"])
    assert chip.read(0, 1)[1] > point
    chip.retire(0)
    assert not chip._read_costs
    for read in (lambda: chip.read(0, 1), lambda: chip.read(0)):
        with pytest.raises(ProgramError, match="not written"):
            read()
    chip._audit_read_costs()


@pytest.mark.parametrize("dynamic", (
    {"read_disturb_rber": DISTURB_RBER},
    {"retention_rber_per_day": RETENTION_RBER_PER_DAY, "now_fn": lambda: 0.0}))
def test_a_chip_whose_rber_moves_under_data_remembers_nothing(dynamic):
    chip = _programmed_chip(**dynamic)
    for _ in range(3):
        chip.read(0, 0)
        chip.read(0)
    assert not chip._read_costs
    chip._audit_read_costs()


def test_the_audit_catches_a_stale_and_an_orphaned_cost():
    chip = _programmed_chip()
    chip.read(0)
    chip._block_pec[0] += 2     # wear set by hand under the data
    with pytest.raises(AssertionError, match="stale read cost"):
        chip._audit_read_costs()
    chip._forget_read_costs([0])
    chip._audit_read_costs()
    chip._read_costs[9] = chip._read_cost(0)    # fPage 9 was never written
    with pytest.raises(AssertionError, match="holds no data"):
        chip._audit_read_costs()

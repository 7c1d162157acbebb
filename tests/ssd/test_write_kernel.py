"""Differential test: the range write kernel against the per-LBA loop.

``PageMappedFTL._write_members`` validates a range once, asks the
flavour's admission gate before the first member and after every drain,
and inlines the buffer bookkeeping; ``write_loop_oracle.py`` is the loop
it replaced — one full ``write`` per member. Twin devices (same chip
seed, same configuration) take the same calls, one through the kernel
and one through the oracle, and after *every* call everything a host or
a later write could observe must be equal: the counters, both latency
reservoirs down to their decimation cursor, the maps, the buffer in
drain order with its stream bookkeeping, the chip's counters and RNG
state, liveness, capacity, the Salamander event log and minidisk table,
and the exception the call raised (type and message).

The geometry is small and wears out in ~1,500 writes, so a walk runs
its device to death and past it: bricks, read-only trips, CVSS shrinks,
minidisk decommissions, regenerations and exhaustion all land in the
middle of ranges. ``test_scripted_walks_reach_every_transition`` pins
that they really do; ``test_seeded_mutations_are_caught`` breaks the
kernel (and the wear epoch it relies on) six ways and requires the
comparison to notice each.
"""

from __future__ import annotations

import inspect
import textwrap
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import context
from repro.errors import (
    DeviceBrickedError,
    DeviceReadOnlyError,
    MinidiskDecommissionedError,
    OutOfSpaceError,
    PowerLossError,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.obs import MetricsRegistry
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.ssd import ftl as ftl_module
from repro.ssd.cvss import CVSSConfig, CVSSDevice
from repro.ssd.device import BaselineSSD, SSDConfig
from repro.ssd.ftl import FTLConfig, PageMappedFTL
from repro.ssd.stats import LatencyReservoir

from . import write_loop_oracle as oracle

GEOMETRY = FlashGeometry(blocks=16, fpages_per_block=8)
POLICY = TirednessPolicy(geometry=GEOMETRY)
# Three P/E cycles per block: wear events arrive within ~1,400 writes.
MODEL = calibrate_power_law(POLICY, pec_limit_l0=3)
MSIZE = 32
OPAGE = GEOMETRY.opage_bytes

FLAVOURS = ("ftl", "baseline", "baseline-ro", "cvss", "shrink", "regen")
#: How a call picks its first LBA: anywhere; the previous call's range
#: again (every key still buffered is overwritten in place); half a
#: range further on (overlaps across calls); or the end of the address
#: space a shrink takes first — the tail of a CVSS device's capacity,
#: the youngest active minidisk of a Salamander device.
PLACEMENTS = ("fresh", "repeat", "shifted", "edge")
#: Calls a walk keeps making once its device has died.
AFTERLIFE = 4


def build(flavour: str, chip_seed: int, host_streams: int,
          autoscrub: bool = False):
    chip = FlashChip(GEOMETRY, rber_model=MODEL, policy=POLICY,
                     seed=chip_seed, variation_sigma=0.3)
    # Autoscrub counts drains, and its sweeps relocate (and wear) too.
    ftl = FTLConfig(overprovision=0.25, buffer_opages=8,
                    gc_reserve_blocks=2, host_streams=host_streams,
                    scrub_interval_writes=5 if autoscrub else 0,
                    scrub_batch_fpages=8)
    if flavour == "ftl":
        return PageMappedFTL(
            chip, int(GEOMETRY.total_opage_slots * 0.6), ftl)
    if flavour.startswith("baseline"):
        return BaselineSSD(chip, SSDConfig(
            ftl=ftl, read_only_at_eol=flavour == "baseline-ro"))
    if flavour == "cvss":
        return CVSSDevice(chip, CVSSConfig(ftl=ftl))
    return SalamanderSSD(chip, SalamanderConfig(
        msize_lbas=MSIZE, mode=flavour, headroom_fraction=0.25, ftl=ftl))


def _reservoir(reservoir: LatencyReservoir) -> tuple:
    return (list(reservoir._samples), reservoir._stride, reservoir._cursor,
            reservoir.count, reservoir.total, reservoir.max)


def observe(device) -> dict:
    """Everything the kernel could get wrong, as plain comparable data."""
    stats = device.stats
    state = {
        # Every counter (what ``stats.snapshot()`` is computed from).
        "stats": {f.name: getattr(stats, f.name) for f in fields(stats)
                  if not f.name.endswith("_latency")},
        "write_latency": _reservoir(stats.write_latency),
        "read_latency": _reservoir(stats.read_latency),
        "l2p": device._l2p.tolist(),
        "p2l": device._p2l.tolist(),
        "valid": device._valid_counts.tolist(),
        "buffer": [(key, device.buffer.get(key))
                   for key in device.buffer.keys()],
        "buffer_stream": sorted(device._buffer_stream.items()),
        "stream_counts": list(device._stream_counts),
        "open": dict(device._open),
        "scrub": (device._scrub_cursor, device._writes_since_scrub),
        "chip": device.chip.stats.snapshot(),
        "chip_rng": device.chip.rng.bit_generator.state,
        "alive": device.is_alive,
        "capacity": device.capacity_lbas,
        "n_lbas": device.n_lbas,
    }
    if isinstance(device, SalamanderSSD):
        state["event_seq"] = device.event_seq
        state["events"] = list(device.events)
        state["minidisks"] = device._table.rows()
    if isinstance(device, BaselineSSD):
        state["bad_blocks"] = device.ledger.bad_count
        state["read_only"] = device.is_read_only
    return state


class Twins:
    """One device written through the kernel, its twin through the
    per-LBA loop; :meth:`call` makes the same call on both and compares."""

    def __init__(self, flavour: str, chip_seed: int, host_streams: int = 1,
                 plan: FaultPlan | None = None,
                 autoscrub: bool = False) -> None:
        self.kernel, self.oracle = (
            self._build(plan, flavour, chip_seed, host_streams, autoscrub)
            for _ in range(2))
        self.salamander = isinstance(self.kernel, SalamanderSSD)
        #: (mdisk_id or None, lba) of the last call.
        self.last = (0 if self.salamander else None, 0)
        assert observe(self.kernel) == observe(self.oracle)

    @staticmethod
    def _build(plan, *shape):
        if plan is None:
            return build(*shape)
        # An injector each: devices bind it at construction, and its
        # hit counters must not be shared between the twins.
        with context.scoped(faults=FaultInjector(plan)):
            return build(*shape)

    def spaces(self) -> list[tuple[int | None, int]]:
        """(mdisk_id or None, size) of every address space still open."""
        if self.salamander:
            return [(m.mdisk_id, m.size_lbas)
                    for m in self.kernel.active_minidisks()]
        return [(None, self.kernel.capacity_lbas)]

    def place(self, placement: str, count: int, rng) -> tuple:
        """``(mdisk_id or None, lba)`` for a ``count``-member range."""
        # An exhausted Salamander device still has minidisk 0 to refuse.
        spaces = self.spaces() or [(0, MSIZE)]
        space, size = spaces[int(rng.integers(len(spaces)))]
        # A shrunk-to-nothing CVSS device still has LBA 0 to refuse.
        room = max(1, size - count + 1)
        lba = int(rng.integers(room))
        if placement == "edge":
            space, size = spaces[-1]
            lba = max(0, size - count - int(rng.integers(3)))
        elif placement != "fresh":
            space, lba = self.last
            if placement == "shifted":
                lba += count // 2
            limit = MSIZE if self.salamander else self.kernel.n_lbas
            lba = max(0, min(lba, limit - count))
        self.last = (space, lba)
        return space, lba

    def call(self, space, lba: int, payloads: list[bytes],
             stream: int = 0, single: bool = False) -> dict:
        """Write on both devices; returns what the kernel side saw."""
        address = (lba,) if space is None else (space, lba)
        kernel, loop = self.kernel, self.oracle
        before = kernel.stats.host_writes
        seq = getattr(kernel, "event_seq", 0)
        capacity = kernel.capacity_lbas
        programs = kernel.chip.stats.programs
        if single:
            writes = (
                lambda: kernel.write(*address, payloads[0], stream),
                lambda: oracle.write(loop, *address, payloads[0],
                                     stream=stream))
        else:
            writes = (
                lambda: kernel.write_range(*address, payloads, stream),
                lambda: oracle.write_range(loop, *address, payloads,
                                           stream=stream))
        outcomes = []
        for write in writes:
            try:
                write()
                outcomes.append(None)
            except Exception as error:  # noqa: BLE001 - compared below
                outcomes.append((type(error), str(error)))
        assert outcomes[0] == outcomes[1], (
            f"write{address} x{len(payloads)} raised {outcomes[0]} from "
            f"the kernel, {outcomes[1]} from the per-LBA loop")
        seen, expected = observe(kernel), observe(loop)
        for key in expected:
            assert seen[key] == expected[key], (
                f"{key} diverged after write{address} x{len(payloads)}")
        return {"error": outcomes[0] and outcomes[0][0],
                "message": outcomes[0] and outcomes[0][1],
                "count": len(payloads),
                "landed": kernel.stats.host_writes - before,
                "events": getattr(kernel, "event_seq", 0) - seq,
                "shrunk": capacity - kernel.capacity_lbas,
                "programs": kernel.chip.stats.programs - programs}


def walk(twins: Twins, shapes: list[tuple], seed: int,
         max_calls: int = 600) -> list[dict]:
    """Cycle through ``shapes`` — ``(count, stream, oversize_at,
    placement)`` — until the device has been dead for ``AFTERLIFE``
    calls (a plain FTL does not die: until it has refused that many)
    or an injected power loss ends the walk."""
    rng = np.random.default_rng(seed)
    streams = twins.kernel.config.host_streams
    log: list[dict] = []
    refused = 0
    for index in range(max_calls):
        count, stream, oversize_at, placement = shapes[index % len(shapes)]
        space, lba = twins.place(placement, count, rng)
        payloads = [f"{index}:{member}".encode() for member in range(count)]
        if oversize_at is not None and oversize_at < count:
            payloads[oversize_at] = bytes(OPAGE + 1)
        log.append(twins.call(space, lba, payloads, stream % streams,
                              single=count == 1 and index % 2 == 0))
        if log[-1]["error"] is PowerLossError:
            return log          # the objects are wreckage from here on
        if not twins.kernel.is_alive or (
                log[-1]["error"] is OutOfSpaceError
                and not log[-1]["landed"]):
            refused += 1
            if refused == AFTERLIFE:
                break
    assert twins.kernel.stats.snapshot() == twins.oracle.stats.snapshot()
    twins.kernel._audit_fastpath()
    return log


shape = st.tuples(st.integers(1, 24), st.integers(0, 2),
                  st.one_of(st.none(), st.integers(0, 23)),
                  st.sampled_from(PLACEMENTS))
crash = st.builds(
    FaultSpec, fault=st.just("crash"), when=st.integers(1, 600),
    site=st.sampled_from(("ftl.write", "ftl.drain.pre_program",
                          "ftl.drain.post_program", "gc.pre_erase")))
#: Refused programs (the drain retires the page and retries) and
#: refused erases (the block is condemned: wear handling with no erase).
media = st.builds(
    FaultSpec, fault=st.just("fail"), when=st.integers(1, 200),
    count=st.integers(1, 3),
    site=st.sampled_from(("chip.program", "chip.erase")))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(flavour=st.sampled_from(FLAVOURS), chip_seed=st.integers(0, 2**16),
       host_streams=st.sampled_from((1, 3)),
       shapes=st.lists(shape, min_size=1, max_size=6),
       seed=st.integers(0, 2**16),
       injected=st.lists(st.one_of(crash, media), max_size=3),
       autoscrub=st.booleans())
def test_kernel_equals_the_per_lba_loop(flavour, chip_seed, host_streams,
                                        shapes, seed, injected, autoscrub):
    plan = FaultPlan(events=tuple(injected)) if injected else None
    walk(Twins(flavour, chip_seed, host_streams, plan, autoscrub),
         shapes, seed)


#: A fixed mix: long ranges that span several drains, overlaps, buffer
#: hits, all three streams, single writes, one oversize member.
SCRIPT = [(24, 0, None, "fresh"), (16, 1, None, "edge"),
          (16, 1, None, "repeat"), (9, 2, None, "shifted"),
          (1, 0, None, "fresh"), (20, 2, 13, "edge"), (1, 1, None, "edge"),
          (3, 0, None, "repeat")]


def _mid_range(log: list[dict], error: type) -> list[dict]:
    return [entry for entry in log if entry["error"] is error
            and 0 < entry["landed"] < entry["count"]]


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_scripted_walks_reach_every_transition(flavour):
    """The script really makes each death and shrink land mid-range
    (and the kernel still equals the loop through all of them)."""
    twins = Twins(flavour, chip_seed=11, host_streams=3)
    log = walk(twins, SCRIPT, seed=5)
    device = twins.kernel
    assert max(entry["programs"] for entry in log) >= 5   # several drains
    oversize = [entry for entry in log if entry["message"]
                and "exceeds the 4096-byte oPage size" in entry["message"]]
    assert oversize and all(entry["landed"] == 13 for entry in oversize)
    if flavour == "ftl":
        assert _mid_range(log, OutOfSpaceError)
        return
    assert not device.is_alive
    assert log[-1]["landed"] == 0 and log[-1]["error"] is not None
    if flavour == "baseline":
        assert _mid_range(log, DeviceBrickedError)
    elif flavour == "baseline-ro":
        assert _mid_range(log, DeviceReadOnlyError)
        assert device.is_read_only
    elif flavour == "cvss":
        # The device shrank under a range and refused its tail.
        assert [entry for entry in _mid_range(log, OutOfSpaceError)
                if entry["shrunk"] and "beyond shrunk capacity"
                in entry["message"]]
    else:
        assert _mid_range(log, MinidiskDecommissionedError)
        # Exhaustion: the last minidisk went, or a drain found no space.
        assert (_mid_range(log, DeviceBrickedError)
                or _mid_range(log, OutOfSpaceError))
        assert device.stats.decommissioned_minidisks > 3
        if flavour == "regen":
            assert device.stats.regenerated_minidisks > 0


def test_published_metrics_match_too():
    """The published FTL counters are the kernel's own stats, read at
    export: nothing on the write path can make them drift."""
    registry = MetricsRegistry()
    with context.scoped(metrics=registry):
        twins = Twins("regen", chip_seed=11, host_streams=3)
        walk(twins, SCRIPT, seed=5)
    registry.collect()
    stats, name = twins.kernel.stats, twins.kernel.obs_name

    def published(metric):
        return registry.get(metric).labels(device=name).value

    assert published("repro_ftl_host_writes_total") == stats.host_writes
    assert published("repro_ftl_write_amplification") == (
        stats.write_amplification) > 0.5


# -- seeded mutations --------------------------------------------------------

#: What breaks -> (the walk that must notice, the method, source edits).
#: An edit is ``(old, new)`` on the dedented source of the method;
#: ``old`` must still be there, so a mutation cannot silently stop
#: applying.
CRASH_PLAN = FaultPlan(events=(
    FaultSpec(site="ftl.write", fault="crash", when=150),))
KERNEL = "_write_members"
MUTATIONS = {
    "gate not re-evaluated after a drain": (("shrink", None), KERNEL, [
        ("limit = lba + 1  #", "pass  #")]),
    "wear handled without moving the epoch": (("shrink", None),
                                              "_erase_block", [
        ("self._wear_epoch += len(worn)", "pass")]),
    "a block condemned without moving the epoch": (
        ("shrink", FaultPlan(events=(FaultSpec(
            site="chip.erase", fault="fail", when=5, count=3),))),
        "_condemn_block", [("self._wear_epoch += 1", "pass")]),
    "write_latency fed once per range": (("ftl", None), KERNEL, [
        ("limit = self._admit_write(lba)\n",
         "limit = self._admit_write(lba)\n    waits = []\n"),
        ("add_latency(waited)", "waits.append(waited)"),
        ("        lba += 1\n",
         "        lba += 1\n    add_latency(sum(waits))\n")]),
    "host_writes counted before the insert": (("baseline", None), KERNEL, [
        ("        if injector is not None:",
         "        stats.host_writes += 1\n"
         "        if injector is not None:"),
        ("        stats.host_writes += 1\n"
         "        add_latency(waited)",
         "        add_latency(waited)")]),
    "fault hit once per range": (("ftl", CRASH_PLAN), KERNEL, [
        ("limit = self._admit_write(lba)\n",
         "limit = self._admit_write(lba)\n    first = lba\n"),
        ("if injector is not None:",
         "if injector is not None and lba == first:")]),
}


def _mutant(method: str, edits: list[tuple[str, str]]):
    source = textwrap.dedent(inspect.getsource(getattr(PageMappedFTL, method)))
    for old, new in edits:
        assert old in source, f"mutation target vanished: {old!r}"
        source = source.replace(old, new, 1)
    namespace: dict = {}
    exec(source, vars(ftl_module), namespace)
    return namespace[method]


@pytest.mark.parametrize("name", MUTATIONS)
def test_seeded_mutations_are_caught(name, monkeypatch):
    (flavour, plan), method, edits = MUTATIONS[name]
    # The walk passes on the real code...
    walk(Twins(flavour, 11, 3, plan), SCRIPT, seed=5)
    # ...and not on the broken one.
    monkeypatch.setattr(PageMappedFTL, method, _mutant(method, edits))
    with pytest.raises(AssertionError, match="diverged|raised"):
        walk(Twins(flavour, 11, 3, plan), SCRIPT, seed=5)

"""Stateful test: the minidisk census against a recount, everywhere it moves.

``SalamanderSSD`` keeps its census — the active set, the advertised
capacity, the DRAINING FIFO — as state that each lifecycle transition
updates (``repro.salamander.minidisk.MinidiskTable``) instead of
recounting the minidisk table on every read. A hypothesis
``RuleBasedStateMachine`` drives one device through everything that can
move it: host writes, range writes and trims, accelerated wear (which
forces decommissions and, under RegenS, regenerations), the §4.3 grace
period with host-side ``release_minidisk``, forced decommissions,
injected power losses at ``salamander.decommission`` and
``salamander.regenerate`` followed by a remount, clean power cycles and
exhaustion. After every rule

* ``SalamanderSSD._audit_fastpath()`` holds (the FTL counters, and the
  census against an O(n) recount of the table), and
* every public read that used to scan — ``active_minidisks()``,
  ``advertised_lbas``/``advertised_bytes``/``capacity_lbas``,
  ``needed_opage_slots()``, ``report()`` — equals its scan.

A host-event listener makes the same comparison *inside* each
transition, at the moment the event is emitted, which is where a census
refreshed on a version check (``event_seq`` moves before the status
does) would still be stale.
``test_scripted_walk_reaches_every_transition`` drives the same rules in
a fixed order and asserts that every transition really happened.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.errors import PowerLossError, ReproError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults.harness import remount_after_crash
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.rng import make_rng
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.salamander.events import (
    DeviceExhausted,
    MinidiskDecommissioned,
    MinidiskRegenerated,
)
from repro.salamander.minidisk import MinidiskStatus
from repro.salamander.shrink import VICTIM_POLICIES
from repro.ssd.ftl import FTLConfig

GEOMETRY = FlashGeometry(blocks=16, fpages_per_block=8)
POLICY = TirednessPolicy(geometry=GEOMETRY)
# Three P/E cycles per block: wear events arrive within ~1,400 writes.
MODEL = calibrate_power_law(POLICY, pec_limit_l0=3)
FTL = FTLConfig(overprovision=0.25, buffer_opages=8, gc_reserve_blocks=2)
MSIZE = 16
#: Wear overwrites only these LBAs of each minidisk, so a worn device
#: keeps spare capacity and survives many decommissions.
HOT_LBAS = 4
CRASH_SITES = ("salamander.decommission", "salamander.regenerate")

picks = st.integers(0, 10**6)


def scan_active(device):
    return [m for m in device.minidisks
            if m.status is MinidiskStatus.ACTIVE]


class CensusMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.device: SalamanderSSD | None = None
        self.crashes: list[str] = []
        self.host_releases = 0
        self.emitted = 0

    # -- fixture --------------------------------------------------------------

    @initialize(mode=st.sampled_from(("shrink", "regen")),
                grace=st.sampled_from((0, 2)),
                victim=st.sampled_from(sorted(VICTIM_POLICIES)),
                seed=st.integers(0, 40))
    def build(self, mode, grace, victim, seed):
        chip = FlashChip(GEOMETRY, rber_model=MODEL, policy=POLICY,
                         seed=seed, variation_sigma=0.3)
        self.device = SalamanderSSD(chip, SalamanderConfig(
            msize_lbas=MSIZE, mode=mode, regen_max_level=2,
            headroom_fraction=0.25, grace_decommissions=grace,
            victim_policy=victim, ftl=FTL))
        self.device.add_listener(self._on_event)
        self.rng = make_rng(seed)
        # Pre-age to the first wear event, so the bursts the machine
        # applies land where minidisks come and go.
        for _ in range(400):
            if self.device.event_seq:
                break
            self.wear(writes=16)

    def _on_event(self, event) -> None:
        """Inside the transition: the census already agrees with a scan."""
        self.emitted += 1
        device = self.device
        device._table.audit()
        if isinstance(event, MinidiskDecommissioned):
            assert event.remaining_active == len(scan_active(device))
            assert not device.minidisk(event.mdisk_id).is_active
        elif isinstance(event, MinidiskRegenerated):
            assert device.minidisk(event.mdisk_id) is \
                device.active_minidisks()[-1]

    def _absorb(self, operation) -> None:
        """Run a host operation; a power loss remounts, end of life and
        rejected requests are legitimate answers."""
        try:
            operation()
        except PowerLossError as loss:
            self.crashes.append(loss.site)
            self.device = remount_after_crash(self.device)
            self.device.add_listener(self._on_event)
        except ReproError:
            pass

    def _active(self, pick: int):
        active = self.device.active_minidisks()
        return active[pick % len(active)] if active else None

    # -- host IO --------------------------------------------------------------

    @rule(pick=picks, lba=st.integers(0, MSIZE - 1))
    def write(self, pick, lba):
        mdisk = self._active(pick)
        if mdisk is not None:
            self._absorb(lambda: self.device.write(
                mdisk.mdisk_id, lba, bytes([pick & 0xFF]) * 4))

    @rule(pick=picks, lba=st.integers(0, MSIZE - 4),
          count=st.integers(1, 4))
    def write_range(self, pick, lba, count):
        mdisk = self._active(pick)
        if mdisk is not None:
            self._absorb(lambda: self.device.write_range(
                mdisk.mdisk_id, lba, [bytes([pick & 0xFF])] * count))

    @rule(pick=picks, lba=st.integers(0, MSIZE - 1))
    def trim(self, pick, lba):
        mdisk = self._active(pick)
        if mdisk is not None:
            self._absorb(lambda: self.device.trim(mdisk.mdisk_id, lba))

    @rule(pick=picks)
    def write_to_any_minidisk(self, pick):
        """Also minidisks that left service: the write must be refused."""
        mdisk_id = pick % len(self.device.minidisks)
        self._absorb(lambda: self.device.write(mdisk_id, 0, b"late"))

    @rule()
    def flush(self):
        self._absorb(self.device.flush)

    @rule(writes=st.integers(16, 160))
    def wear(self, writes):
        def burst():
            for _ in range(writes):
                active = self.device.active_minidisks()
                if not active:
                    return
                mdisk = active[int(self.rng.integers(len(active)))]
                self.device.write(mdisk.mdisk_id,
                                  int(self.rng.integers(HOT_LBAS)), b"w")
        self._absorb(burst)

    # -- lifecycle ------------------------------------------------------------

    @rule(pick=picks)
    def decommission(self, pick):
        mdisk = self._active(pick)
        if mdisk is not None and self.device.is_alive:
            self._absorb(lambda: self.device._decommission(
                mdisk, reason="test"))

    @rule(pick=picks)
    def host_release(self, pick):
        draining = self.device._table.draining
        if draining:
            self.host_releases += 1
            self.device.release_minidisk(draining[pick % len(draining)])

    @rule(site=st.sampled_from(CRASH_SITES))
    def arm_crash(self, site):
        """The next hit of ``site`` on this device loses power."""
        self.device._faults = FaultInjector(FaultPlan(
            events=(FaultSpec(site=site, fault="crash"),)))

    @rule()
    def power_cycle(self):
        self.device = remount_after_crash(self.device)
        self.device.add_listener(self._on_event)

    @rule()
    def exhaust(self):
        self.device._exhaust()

    # -- the check ------------------------------------------------------------

    @invariant()
    def census_equals_scan(self):
        device = self.device
        if device is None:
            return
        device._audit_fastpath()
        active = scan_active(device)
        census = device.active_minidisks()
        assert isinstance(census, tuple)
        assert len(census) == len(active)
        assert all(kept is scanned for kept, scanned in zip(census, active))
        advertised = sum(m.size_lbas for m in active)
        assert device.advertised_lbas == advertised
        assert device.capacity_lbas == advertised
        assert device.advertised_bytes == (
            advertised * device.geometry.opage_bytes)
        draining = [m.mdisk_id for m in device.minidisks
                    if m.status is MinidiskStatus.DRAINING]
        assert sorted(device._table.draining) == draining
        # A power loss at salamander.decommission lands after the victim
        # entered the FIFO and before the overflow release: one over.
        grace = device.salamander_config.grace_decommissions
        assert len(draining) <= grace + self.crashes.count(
            "salamander.decommission")
        live = device._live_counts()
        assert device.needed_opage_slots() == (
            math.ceil(advertised * 1.25) + device._reserve_slots
            + sum(live.get(m, 0) for m in draining))
        report = device.report()
        assert report["active_minidisks"] == len(active)
        assert report["total_minidisks"] == len(device.minidisks)
        assert report["advertised_bytes"] == device.advertised_bytes
        assert device.nvram_snapshot()["draining"] == device._table.draining


TestCensusMachine = CensusMachine.TestCase
TestCensusMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large])


def _walk(mode: str, grace: int):
    """A built machine and a ``step`` that checks after every rule."""
    machine = CensusMachine()

    def step(rule_method, **kwargs):
        rule_method(**kwargs)
        machine.census_equals_scan()

    step(machine.build, mode=mode, grace=grace, victim="youngest", seed=5)
    return machine, step


def _events(machine, kind) -> int:
    return sum(isinstance(e, kind) for e in machine.device.events)


def test_scripted_walk_reaches_every_transition():
    """The rules, in a fixed order, really cause wear decommissions,
    regenerations, draining and both kinds of release, both crash
    windows and exhaustion — with the check after each."""
    machine, step = _walk("regen", grace=2)
    total_before = len(machine.device.minidisks)
    for round_ in range(12):      # ~24 rounds wear this device out
        step(machine.wear, writes=40)
        step(machine.write_range, pick=round_, lba=round_ % 12, count=3)
        step(machine.trim, pick=round_, lba=round_ % MSIZE)
        if round_ % 4 == 0:
            step(machine.host_release, pick=round_)
    device = machine.device
    assert device.stats.decommissioned_minidisks > 2
    assert device.stats.regenerated_minidisks > 0
    assert len(device.minidisks) > total_before
    assert machine.host_releases > 0
    # Grace overflow: a third draining minidisk forces the oldest out.
    for pick in range(3):
        step(machine.decommission, pick=pick)
    assert len(machine.device._table.draining) == 2
    step(machine.write_to_any_minidisk, pick=0)
    step(machine.flush)

    # Power loss between the NVRAM status change and the rest.
    decommissioned = machine.device.stats.decommissioned_minidisks
    step(machine.arm_crash, site="salamander.decommission")
    step(machine.decommission, pick=1)
    assert machine.crashes == ["salamander.decommission"]
    assert machine.device.stats.decommissioned_minidisks == 0  # remounted
    assert decommissioned > 0
    # ...and before a mint touches NVRAM.
    step(machine.arm_crash, site="salamander.regenerate")
    for _ in range(20):
        if len(machine.crashes) == 2:
            break
        step(machine.wear, writes=40)
    assert machine.crashes[1] == "salamander.regenerate"
    assert machine.device.is_alive
    step(machine.power_cycle)
    step(machine.wear, writes=40)

    step(machine.exhaust)
    assert not machine.device.is_alive
    assert _events(machine, DeviceExhausted) == 1
    step(machine.write, pick=0, lba=0)           # refused, census intact
    step(machine.power_cycle)
    assert not machine.device.is_alive
    assert machine.emitted > 10


def test_scripted_walk_base_design_wears_to_exhaustion():
    """ShrinkS without a grace period, worn until no minidisk is left."""
    machine, step = _walk("shrink", grace=0)
    for _ in range(400):
        if not machine.device.is_alive:
            break
        step(machine.wear, writes=40)
    device = machine.device
    assert not device.is_alive
    assert _events(machine, DeviceExhausted) == 1
    assert _events(machine, MinidiskRegenerated) == 0
    gone = _events(machine, MinidiskDecommissioned)
    assert gone > 5
    assert len(device.active_minidisks()) == len(device.minidisks) - gone
    assert device._table.draining == []

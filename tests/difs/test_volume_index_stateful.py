"""Stateful differential test: the volume index against the scan oracle.

A hypothesis ``RuleBasedStateMachine`` drives a mixed baseline / CVSS /
ShrinkS / RegenS cluster through everything that can move a row of the
columnar volume index — chunk create/update/delete/read, failure
polling, recovery, administrative failures, accelerated wear (with
decommissions *and* regenerations), device exhaustion, a CVSS shrink and
a coordinator restart — and after every rule checks that

* each policy picks the same volumes, raises the same error and leaves
  the RNG in the same state as the pre-index scan
  (``placement_oracle.py``), through the cluster's live index and
  through a throw-away index over the plain volume list;
* ``Cluster._audit_volume_index()`` holds (every column equals its O(n)
  recomputation from the ``Volume`` objects);
* the index-backed counts equal their scans.

The placement comparison runs *before* the audit, so a ``place`` that
forgot to fold in device-side deaths is not rescued by the audit's own
refresh. ``test_scripted_walk_reaches_every_transition`` drives the same
rules in a fixed order and asserts the interesting transitions really
happened, so coverage does not depend on hypothesis's luck.
``test_seeded_mutations_are_caught`` breaks the index's ``key`` column
and its per-node row arrays four ways and requires a walk to notice
each.
"""

from __future__ import annotations

import inspect
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.difs.cluster import Cluster, ClusterConfig
from repro.difs.placement import (
    PLACEMENT_POLICIES,
    VolumeIndex,
    place_replicas,
)
from repro.difs.volume import Volume
from repro.errors import NoPlacementError, ReproError
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.rng import make_rng
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.salamander.events import MinidiskDecommissioned, MinidiskRegenerated
from repro.ssd.cvss import CVSSConfig, CVSSDevice
from repro.ssd.device import BaselineSSD, SSDConfig
from repro.ssd.ftl import FTLConfig

from tests.difs.placement_oracle import scan_place_replicas

FLAVOURS = ("baseline", "cvss", "shrink", "regen")
POLICIES = sorted(PLACEMENT_POLICIES)

GEOMETRY = FlashGeometry(blocks=16, fpages_per_block=8)
POLICY = TirednessPolicy(geometry=GEOMETRY)
# Three P/E cycles per block: wear events arrive within ~1,400 writes.
MODEL = calibrate_power_law(POLICY, pec_limit_l0=3)
FTL = FTLConfig(overprovision=0.25, buffer_opages=8, gc_reserve_blocks=2)
#: Wear overwrites only these LBAs, so worn devices keep spare capacity
#: and survive many decommissions instead of filling up at the first.
HOT_LBAS = 8

picks = st.integers(0, 10**6)


def wear(device, writes: int, rng) -> None:
    """Overwrite hot LBAs directly on the device until it objects."""
    try:
        for _ in range(writes):
            lba = int(rng.integers(HOT_LBAS))
            if isinstance(device, SalamanderSSD):
                active = device.active_minidisks()
                if not active:
                    return
                mdisk = active[int(rng.integers(len(active)))]
                device.write(mdisk.mdisk_id, lba, b"w")
            else:
                device.write(lba, b"w")
    except ReproError:
        pass   # worn out mid-burst: exactly the case under test


def build_device(flavour: str, seed: int):
    chip = FlashChip(GEOMETRY, rber_model=MODEL, policy=POLICY, seed=seed,
                     variation_sigma=0.3)
    if flavour == "baseline":
        return BaselineSSD(chip, SSDConfig(ftl=FTL))
    if flavour == "cvss":
        return CVSSDevice(chip, CVSSConfig(ftl=FTL))
    device = SalamanderSSD(chip, SalamanderConfig(
        msize_lbas=32, mode=flavour, regen_max_level=2,
        headroom_fraction=0.25, ftl=FTL))
    # Pre-age to the first wear event, so the bursts the machine applies
    # land in the regime where minidisks come and go.
    rng = make_rng(seed)
    for _ in range(400):
        if device.event_seq:
            break
        wear(device, 16, rng)
    return device


def outcome(place, policy, volumes, count, avoid):
    """(picked volume ids | error message, RNG state afterwards)."""
    rng = make_rng(97)
    try:
        result = [v.volume_id for v in
                  place(policy, volumes, count, rng, avoid_nodes=avoid)]
    except NoPlacementError as error:
        result = str(error)
    return result, rng.bit_generator.state


class VolumeIndexMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.cluster: Cluster | None = None
        self.steps = 0
        self.created = 0

    # -- fixture --------------------------------------------------------------

    @initialize(flavours=st.lists(st.sampled_from(FLAVOURS), min_size=4,
                                  max_size=5),
                policy=st.sampled_from(POLICIES), seed=st.integers(0, 40))
    def build(self, flavours, policy, seed):
        self.config = ClusterConfig(replication=2, chunk_lbas=4,
                                    placement=policy)
        self.devices = [build_device(flavour, seed + n)
                        for n, flavour in enumerate(flavours)]
        self.rng = make_rng(seed)
        self.cluster = self._coordinator(seed)

    def _coordinator(self, seed: int) -> Cluster:
        cluster = Cluster(self.config, seed=seed)
        for n, device in enumerate(self.devices):
            cluster.add_node(f"n{n}")
            cluster.add_device(f"n{n}", device)
        return cluster

    def _chunk(self, pick: int) -> str | None:
        chunk_ids = sorted(self.cluster.namespace)
        return chunk_ids[pick % len(chunk_ids)] if chunk_ids else None

    def _volume(self, pick: int):
        volumes = list(self.cluster.volumes.values())
        return volumes[pick % len(volumes)] if volumes else None

    def _poll(self) -> None:
        """``poll_failures`` reports what a scan would, in scan order."""
        cluster, recovery = self.cluster, self.cluster.recovery
        expected = [volume_id
                    for volume_id, volume in cluster.volumes.items()
                    if not volume.is_alive
                    and not recovery.is_failed(volume_id)]
        reported = []
        enqueue = recovery.volume_failed
        recovery.volume_failed = lambda volume_id: (
            reported.append(volume_id), enqueue(volume_id))
        try:
            found = cluster.poll_failures()
        finally:
            del recovery.volume_failed
        assert reported == expected
        assert found == len(expected)

    # -- client operations ----------------------------------------------------

    @rule(pick=picks)
    def create_chunk(self, pick):
        self.created += 1
        try:
            self.cluster.create_chunk(f"c{self.created}",
                                      bytes([pick & 0xFF]) * 8)
        except ReproError:
            pass   # too degraded or too full: a legitimate refusal

    @rule(pick=picks)
    def update_chunk(self, pick):
        chunk_id = self._chunk(pick)
        if chunk_id is not None:
            try:
                self.cluster.update_chunk(chunk_id,
                                          bytes([pick & 0xFF]) * 8)
            except ReproError:
                pass

    @rule(pick=picks)
    def delete_chunk(self, pick):
        chunk_id = self._chunk(pick)
        if chunk_id is not None:
            self.cluster.delete_chunk(chunk_id)

    @rule(pick=picks)
    def read_chunk(self, pick):
        chunk_id = self._chunk(pick)
        if chunk_id is not None:
            try:
                self.cluster.read_chunk(chunk_id)
            except ReproError:
                pass

    @rule()
    def poll_failures(self):
        self._poll()

    @rule()
    def run_recovery(self):
        self.cluster.run_recovery()

    # -- failures -------------------------------------------------------------

    @rule(pick=picks, through_recovery=st.booleans())
    def mark_failed(self, pick, through_recovery):
        volume = self._volume(pick)
        if volume is None:
            return
        if through_recovery:
            self.cluster.recovery.volume_failed(volume.volume_id)
        else:
            volume.mark_failed()   # silent: only a poll finds it

    @rule(pick=picks, writes=st.integers(16, 160), then_poll=st.booleans())
    def wear_device(self, pick, writes, then_poll):
        wear(self.devices[pick % len(self.devices)], writes, self.rng)
        if then_poll:
            self._poll()

    @rule(pick=picks, then_poll=st.booleans())
    def exhaust_device(self, pick, then_poll):
        device = self.devices[pick % len(self.devices)]
        if isinstance(device, SalamanderSSD):
            device._exhaust()       # seq bump + DeviceExhausted event
        else:
            device._failed = True   # a silent brick
        if then_poll:
            self._poll()

    @rule(pick=picks, drop=st.integers(1, 3))
    def cvss_shrink(self, pick, drop):
        shrinkable = [v for v in self.cluster.volumes.values()
                      if getattr(v.device, "shrink_listener", None)]
        if shrinkable:
            volume = shrinkable[pick % len(shrinkable)]
            slots = max(0, volume.total_slots - drop)
            volume.device.shrink_listener(slots * volume.chunk_lbas)

    @rule(seed=st.integers(0, 40))
    def restart_coordinator(self, seed):
        # A fresh coordinator (empty namespace) indexes the worn devices.
        self.cluster = self._coordinator(seed)

    # -- the differential check -----------------------------------------------

    @invariant()
    def index_agrees_with_scan(self):
        cluster = self.cluster
        if cluster is None:
            return
        self.steps += 1
        volumes = list(cluster.volumes.values())
        nodes = sorted(cluster.nodes)
        count = 1 + self.steps % 3
        avoid = {nodes[self.steps % len(nodes)]} if self.steps % 2 else set()
        for policy in POLICIES:
            expected = outcome(scan_place_replicas, policy, volumes,
                               count, avoid)
            assert outcome(place_replicas, policy, cluster._index,
                           count, avoid) == expected, policy
            assert outcome(place_replicas, policy, volumes,
                           count, avoid) == expected, policy
        cluster._audit_volume_index()
        alive = [v for v in volumes if v.is_alive]
        assert cluster.live_volume_count() == len(alive)
        assert cluster.total_capacity_bytes() == sum(
            v.capacity_lbas() for v in alive) * cluster.config.opage_bytes
        queues = []
        for volume in volumes:
            if volume.queue not in queues:
                queues.append(volume.queue)
        assert cluster.device_queues() == queues


TestVolumeIndexMachine = VolumeIndexMachine.TestCase
TestVolumeIndexMachine.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large])


def scripted_walk() -> VolumeIndexMachine:
    """Every rule in a fixed order, the differential check after each."""
    machine = VolumeIndexMachine()

    def step(rule_method, **kwargs):
        rule_method(**kwargs)
        machine.index_agrees_with_scan()

    step(machine.build, flavours=["regen", "shrink", "cvss", "baseline",
                                  "regen"],
         policy="wear-aware", seed=5)
    for pick in range(12):
        step(machine.create_chunk, pick=pick)
    for round_ in range(40):
        step(machine.wear_device, pick=round_ % 2, writes=120,
             then_poll=round_ % 3 == 0)
        step(machine.update_chunk, pick=round_)
        step(machine.run_recovery)
    events = [event for device in machine.devices[:2]
              for event in device.events]
    assert any(isinstance(e, MinidiskDecommissioned) for e in events)
    assert any(isinstance(e, MinidiskRegenerated) for e in events)
    assert any(getattr(v, "level", 0) > 0
               for v in machine.cluster.volumes.values())

    step(machine.cvss_shrink, pick=0, drop=2)
    step(machine.mark_failed, pick=3, through_recovery=False)
    step(machine.poll_failures)
    step(machine.exhaust_device, pick=3, then_poll=False)   # baseline
    step(machine.read_chunk, pick=1)
    step(machine.exhaust_device, pick=4, then_poll=True)    # RegenS
    step(machine.run_recovery)
    assert machine.cluster.recovery.stats.volume_failures > 0
    step(machine.restart_coordinator, seed=9)
    step(machine.poll_failures)   # the bricked baseline, registered dead
    step(machine.delete_chunk, pick=0)
    step(machine.create_chunk, pick=99)
    step(machine.run_recovery)
    return machine


def wide_walk() -> VolumeIndexMachine:
    """More volumes than the index's first allocation, so its columns
    double, then chunk traffic with the differential check after each."""
    machine = VolumeIndexMachine()
    machine.build(flavours=["regen"] * 8, policy="spread-nodes", seed=3)
    assert len(machine.cluster.volumes) > len(VolumeIndex()._key)
    for pick in range(8):
        machine.create_chunk(pick=pick)
        machine.update_chunk(pick=pick)
        machine.index_agrees_with_scan()
    return machine


def test_scripted_walk_reaches_every_transition():
    """The rules, in a fixed order, really cause decommissions,
    regenerations, exhaustion, a silent brick, a shrink and a restart —
    with the differential check after each."""
    machine = scripted_walk()
    assert not machine.devices[3].is_alive
    assert not machine.devices[4].is_alive
    assert machine.cluster.recovery.stats.volume_failures > 0


# -- seeded mutations --------------------------------------------------------

#: What breaks -> (the walk that must notice, the class, the method,
#: source edits). An edit is ``(old, new)`` on the dedented source of
#: the method; ``old`` must still be there, so a mutation cannot silently
#: stop applying.
MUTATIONS = {
    "a buried row keeps a finite key": (
        scripted_walk, VolumeIndex, "_bury",
        [("self._key[row] = np.inf", "pass")]),
    "the doubled key column grows zeros": (
        wide_walk, VolumeIndex, "_append",
        [("np.full_like(column, fill)", "np.zeros_like(column)")]),
    "a released slot leaves the key stale": (
        scripted_walk, Volume, "release_slot",
        [("self._push_row()", "pass")]),
    "the avoid mask skips a node": (
        scripted_walk, VolumeIndex, "place",
        [("for name in avoid:", "for name in sorted(avoid)[1:]:")]),
}


def _mutant(owner: type, method: str, edits: list[tuple[str, str]]):
    source = textwrap.dedent(inspect.getsource(getattr(owner, method)))
    for old, new in edits:
        assert old in source, f"mutation target vanished: {old!r}"
        source = source.replace(old, new, 1)
    namespace: dict = {}
    exec(source, vars(sys.modules[owner.__module__]), namespace)
    return namespace[method]


@pytest.mark.parametrize("name", MUTATIONS)
def test_seeded_mutations_are_caught(name, monkeypatch):
    walk, owner, method, edits = MUTATIONS[name]
    # The walk passes on the real code...
    walk()
    # ...and not on the broken one.
    monkeypatch.setattr(owner, method, _mutant(owner, method, edits))
    with pytest.raises(AssertionError):
        walk()

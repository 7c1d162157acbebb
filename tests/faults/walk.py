"""Random-walk engine shared by the crash-consistency fuzz tests.

An *episode* drives one device through a seeded stream of host
operations (write / trim / flush / background GC / scrub) while a
:class:`~repro.faults.FaultPlan` injects power losses at crash sites
across the FTL, GC and Salamander layers. Every injected crash is
absorbed by :func:`repro.faults.harness.remount_after_crash`; the walk
then continues against the remounted device.

The oracle follows the ack rule used by real storage test harnesses:

* a write counts only once ``write()`` *returned* — data lost with an
  un-acked write is correct behaviour, losing an acked write is a bug;
* a trimmed LBA must read as zeros while no crash intervened, but may
  *resurrect* after a remount (trims live in DRAM; the OOB replay finds
  old programs of that LBA — see docs/FAULTS.md). A resurrected LBA may
  carry any formerly written payload, because GC is free to erase newer
  invalid versions while an older one survives in a cold block.

Salamander devices are keyed by ``(mdisk_id, lba)``; a key whose
minidisk was decommissioned leaves the oracle — that data was
re-replicated by the diFS layer by design, not lost by the device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    DeviceBrickedError,
    DeviceReadOnlyError,
    MinidiskDecommissionedError,
    OutOfSpaceError,
    PowerLossError,
)
from repro.faults import FaultPlan
from repro.faults.harness import remount_after_crash
from repro.rng import fork_rng, make_rng
from repro.salamander.device import SalamanderSSD

#: Crash sites exercised on plain-FTL and baseline devices.
FTL_CRASH_SITES = (
    "ftl.write",
    "ftl.drain.pre_program",
    "ftl.drain.post_program",
    "ftl.scrub",
    "gc.pre_relocate",
    "gc.pre_erase",
    "gc.post_erase",
)

#: Salamander devices additionally crash inside capacity transitions.
SALAMANDER_CRASH_SITES = FTL_CRASH_SITES + (
    "salamander.decommission",
    "salamander.regenerate",
)

#: Errors that legitimately end an episode (device reached end of life).
END_OF_LIFE = (DeviceBrickedError, DeviceReadOnlyError, OutOfSpaceError)


@dataclass
class WalkResult:
    """Everything an episode learned, for verification and replay."""

    device: object
    oracle: dict = field(default_factory=dict)       # key -> acked payload
    trimmed: dict = field(default_factory=dict)      # key -> resurrectable
    history: dict = field(default_factory=dict)      # key -> all payloads
    acked_ops: list = field(default_factory=list)    # (op, key, payload)
    crashes: int = 0
    crash_sites: list = field(default_factory=list)
    #: Range writes a crash cut short: (site, members acked, members).
    torn: list = field(default_factory=list)
    steps: int = 0


def _read_key(device, key):
    """Read one oracle key; None when the backing minidisk is gone."""
    if isinstance(device, SalamanderSSD):
        mdisk_id, lba = key
        if device._exhausted:
            return None
        if not device.minidisk(mdisk_id).is_readable:
            return None
        return device.read(mdisk_id, lba)
    return device.read(key)


def _pick_key(device, rng):
    """Pick a host address: plain LBA, or (mdisk_id, lba) on Salamander."""
    if isinstance(device, SalamanderSSD):
        active = device.active_minidisks()
        if not active:
            return None
        mdisk = active[int(rng.integers(len(active)))]
        return (mdisk.mdisk_id, int(rng.integers(mdisk.size_lbas)))
    return int(rng.integers(device.n_lbas))


def _apply(device, op, key, payload):
    """Run one host op; Salamander keys unpack to (mdisk_id, lba)."""
    if isinstance(device, SalamanderSSD):
        if op == "write":
            device.write(key[0], key[1], payload)
        else:
            device.trim(key[0], key[1])
    elif op == "write":
        device.write(key, payload)
    else:
        device.trim(key)


def run_episode(device, plan: FaultPlan, seed: int,
                n_ops: int = 520) -> WalkResult:
    """Drive ``device`` through ``n_ops`` seeded host operations.

    The fault ``plan`` must already be scoped (the device was
    constructed under it); remounted devices re-bind the same injector,
    so hit counters — and therefore crash schedules — continue across
    power cycles.
    """
    rng = fork_rng(make_rng(seed), "fuzz-ops")
    result = WalkResult(device=device)
    serial = 0

    for step in range(n_ops):
        result.steps = step + 1
        roll = float(rng.random())
        device = result.device
        try:
            if roll < 0.62:
                key = _pick_key(device, rng)
                if key is None:
                    break  # no active minidisks left
                serial += 1
                payload = f"{key}#{serial}@{seed}".encode()
                _apply(device, "write", key, payload)
                # Acked: from here on, losing this payload is a bug.
                result.oracle[key] = payload
                result.trimmed.pop(key, None)
                result.history.setdefault(key, []).append(payload)
                result.acked_ops.append(("write", key, payload))
            elif roll < 0.74:
                key = _pick_key(device, rng)
                if key is None:
                    break
                _apply(device, "trim", key, None)
                result.oracle.pop(key, None)
                result.trimmed[key] = False  # strict zeros until a crash
                result.acked_ops.append(("trim", key, None))
            elif roll < 0.82:
                device.flush()
            elif roll < 0.94:
                device.background_tick(max_collections=2)
            else:
                device.scrub(max_fpages=4)
            # Occasional mid-walk probe: acked data must be readable at
            # any instant, not just at the end of the episode.
            if result.oracle and roll > 0.97:
                keys = sorted(result.oracle)
                probe = keys[int(rng.integers(len(keys)))]
                _probe_key(result, probe)
        except PowerLossError as loss:
            result.crashes += 1
            result.crash_sites.append(loss.site)
            result.device = remount_after_crash(result.device)
            # Any trimmed LBA may now resurrect via the OOB replay.
            for key in result.trimmed:
                result.trimmed[key] = True
        except MinidiskDecommissionedError:
            continue  # the pick raced a wear-driven decommission
        except END_OF_LIFE:
            break
    return result


def run_episode_batched(device, plan: FaultPlan, seed: int,
                        n_ops: int = 520, batch: int = 8) -> WalkResult:
    """The queue-dispatch twin of :func:`run_episode`.

    Host writes and trims are staged in batches of ``batch`` and driven
    through ``DeviceQueue.dispatch`` — the traffic engine's submission
    path. ``dispatch`` hands a device error back *in its result tuple*
    instead of raising, so a power loss surfaces as a value the host
    has to notice; the walk follows the host retry protocol a real
    initiator uses after a device reset: members before the crash are
    acked, the batch stops at the crash member, and it and everything
    after it are re-driven against the remounted device (the crash
    member's first execution is void — the crashed object is discarded,
    though any flash it programmed stays durable, which is exactly the
    ambiguity the trim-resurrection rules already allow for).

    Flat-LBA devices only (plain FTL / baseline): Salamander keys need
    per-member minidisk liveness tracking that the scalar walk handles
    by racing decommissions, which a staged batch cannot.
    """
    from repro.io import DeviceQueue
    from repro.io.request import OP_TRIM, OP_WRITE

    rng = fork_rng(make_rng(seed), "fuzz-ops")
    result = WalkResult(device=device)
    queue = DeviceQueue(device)
    serial = 0
    staged: list[tuple[str, int, bytes | None]] = []

    def ack(op, key, payload):
        if op == "write":
            result.oracle[key] = payload
            result.trimmed.pop(key, None)
            result.history.setdefault(key, []).append(payload)
            result.acked_ops.append(("write", key, payload))
        else:
            result.oracle.pop(key, None)
            result.trimmed[key] = False
            result.acked_ops.append(("trim", key, None))

    def absorb_crash(loss: PowerLossError):
        nonlocal queue
        result.crashes += 1
        result.crash_sites.append(loss.site)
        result.device = remount_after_crash(result.device)
        for key in result.trimmed:
            result.trimmed[key] = True
        queue = DeviceQueue(result.device)

    def dispatch():
        pending = staged[:]
        staged.clear()
        index = 0
        while index < len(pending):
            op, key, payload = pending[index]
            if op == "write":
                error = queue.dispatch(OP_WRITE, key, 1, [payload])[1]
            else:
                error = queue.dispatch(OP_TRIM, key)[1]
            if isinstance(error, PowerLossError):
                absorb_crash(error)
                continue  # host retry after the reset, from this member
            if error is not None:
                raise error  # END_OF_LIFE or a real model bug
            ack(op, key, payload)
            index += 1

    for step in range(n_ops):
        result.steps = step + 1
        roll = float(rng.random())
        device = result.device
        try:
            if roll < 0.62:
                serial += 1
                key = int(rng.integers(device.n_lbas))
                staged.append(
                    ("write", key, f"{key}#{serial}@{seed}".encode()))
            elif roll < 0.74:
                staged.append(
                    ("trim", int(rng.integers(device.n_lbas)), None))
            else:
                # Maintenance ops run scalar; staged host ops must land
                # first so flush/GC/scrub observe them.
                dispatch()
                if roll < 0.82:
                    result.device.flush()
                elif roll < 0.94:
                    result.device.background_tick(max_collections=2)
                else:
                    result.device.scrub(max_fpages=4)
                if result.oracle and roll > 0.97:
                    keys = sorted(result.oracle)
                    probe = keys[int(rng.integers(len(keys)))]
                    _probe_key(result, probe)
            if len(staged) >= batch:
                dispatch()
        except PowerLossError as loss:
            absorb_crash(loss)
        except END_OF_LIFE:
            return result
    try:
        dispatch()
    except END_OF_LIFE:
        pass
    return result


def run_episode_ranges(device, plan: FaultPlan, seed: int,
                       n_ops: int = 170, max_span: int = 12) -> WalkResult:
    """The range-write twin of :func:`run_episode`.

    Host writes arrive as ``write_range`` calls of 1..``max_span``
    members, so injected power losses land *inside* ranges — at the
    ``ftl.write`` hit of a middle member, or in the drain a middle
    member had to wait for. The ack rule is per member: the members the
    crashed call had accepted (its ``host_writes`` delta — counted only
    once a member is in NVRAM) are acked and must survive the remount;
    the member that crashed and those after it were never acked and may
    read as their old content or the new, nothing else. Members that
    landed before a mid-range decommission or end of life are acked the
    same way. No trims here (their resurrection rules would blur
    old-or-new); flushes and background GC keep the drains coming.
    """
    rng = fork_rng(make_rng(seed), "fuzz-range-ops")
    result = WalkResult(device=device)
    serial = 0

    def ack(key, payload):
        result.oracle[key] = payload
        result.history.setdefault(key, []).append(payload)
        result.acked_ops.append(("write", key, payload))

    for step in range(n_ops):
        result.steps = step + 1
        roll = float(rng.random())
        device = result.device
        if roll >= 0.7:
            try:
                if roll < 0.85:
                    device.flush()
                else:
                    device.background_tick(max_collections=2)
            except PowerLossError as loss:
                result.crashes += 1
                result.crash_sites.append(loss.site)
                result.device = remount_after_crash(device)
            except END_OF_LIFE:
                break
            continue
        start = _pick_key(device, rng)
        if start is None:
            break
        salamander = isinstance(device, SalamanderSSD)
        lba = start[1] if salamander else start
        room = (device.msize_lbas if salamander else device.n_lbas) - lba
        span = min(1 + int(rng.integers(max_span)), room)
        keys = [(start[0], lba + i) if salamander else lba + i
                for i in range(span)]
        serial += 1
        payloads = [f"{key}#{serial}@{seed}".encode() for key in keys]
        accepted = device.stats.host_writes
        ended = False
        try:
            if salamander:
                device.write_range(start[0], lba, payloads)
            else:
                device.write_range(lba, payloads)
        except PowerLossError as loss:
            result.crashes += 1
            result.crash_sites.append(loss.site)
            result.torn.append(
                (loss.site, device.stats.host_writes - accepted, span))
            result.device = remount_after_crash(device)
        except MinidiskDecommissionedError:
            pass    # the range raced a wear-driven decommission
        except END_OF_LIFE:
            ended = True
        landed = device.stats.host_writes - accepted
        for key, payload in zip(keys[:landed], payloads):
            ack(key, payload)
        if result.device is not device:
            for key, payload in zip(keys[landed:], payloads[landed:]):
                _probe_unacked(result, key, payload)
        if ended:
            break
    return result


def _probe_unacked(result: WalkResult, key, new: bytes) -> None:
    """An un-acked range member reads as its old content or the new."""
    data = _read_key(result.device, key)
    if data is None:
        result.oracle.pop(key, None)    # its minidisk is gone
        return
    opage = result.device.geometry.opage_bytes
    old = result.oracle.get(key, b"")
    assert data in (old.ljust(opage, b"\0"), new.ljust(opage, b"\0")), (
        f"un-acked range member {key} reads as neither its old content "
        f"nor the new: {data[:24]!r}...")
    if data != old.ljust(opage, b"\0"):
        # It made it after all; from here on it must stay.
        result.oracle[key] = new
        result.history.setdefault(key, []).append(new)


def _probe_key(result: WalkResult, key) -> None:
    data = _read_key(result.device, key)
    if data is None:
        # Backing minidisk decommissioned: the key leaves the oracle.
        result.oracle.pop(key, None)
        return
    expected = result.oracle[key]
    opage = result.device.geometry.opage_bytes
    assert data == expected.ljust(opage, b"\0"), (
        f"mid-walk probe: acked write to {key} lost")


def verify_invariants(result: WalkResult) -> None:
    """Post-episode checks: acked durability, trim semantics, audit."""
    device = result.device
    opage = device.geometry.opage_bytes
    zeros = bytes(opage)
    for key, payload in sorted(result.oracle.items()):
        data = _read_key(device, key)
        if data is None:
            continue  # minidisk decommissioned: dropped by design
        assert data == payload.ljust(opage, b"\0"), (
            f"acked write to {key} lost or corrupted after "
            f"{result.crashes} crash(es): "
            f"got {data[:24]!r}..., want {payload!r}")
    for key, resurrectable in sorted(result.trimmed.items()):
        if key in result.oracle:
            continue  # rewritten since the trim
        data = _read_key(device, key)
        if data is None:
            continue
        if data == zeros:
            continue
        assert resurrectable, (
            f"trimmed LBA {key} returned data with no intervening crash")
        stale = {p.ljust(opage, b"\0") for p in result.history.get(key, [])}
        assert data in stale, (
            f"trimmed LBA {key} resurrected with never-written data")
    # The incremental fast-path indexes must agree with a full recompute
    # even after arbitrary crash/remount interleavings.
    device._audit_fastpath()


def replay_reference(reference, acked_ops) -> int:
    """Replay an acked op stream on a fault-free device.

    Returns the number of ops applied (the reference can reach end of
    life earlier or later than the faulty device, because crash-induced
    rewrites wear the two chips differently).
    """
    applied = 0
    for op, key, payload in acked_ops:
        try:
            _apply(reference, op, key, payload)
        except MinidiskDecommissionedError:
            applied += 1  # key dropped on the reference; still in step
            continue
        except END_OF_LIFE:
            break
        applied += 1
    return applied

"""Background work inside a sampled request: its reqtrace segment, its
counter and its endurance cause agree.

GC, scrub, shrink and regen can each run inside a host request's device
call. When the queue samples that request, the work is charged twice:
to the request's reqtrace segment of the same name (with a counter in
the record's ``attrs``), and to the endurance ledger's cause of the same
name. Every dispatch here is sampled (``every=1``) with a ledger scoped,
and a spy on ``ReqContext.enter``/``exit`` logs each section as it
opens and closes. Per dispatch the walk checks:

* the ledger cause is already the section's name when the section opens
  (cause outer, segment inner);
* a GC section opens at the top or inside a scrub (the GC a scrub
  evacuation forces nests under it), and each scenario reaches its
  nesting;
* ``gc_passes``, ``scrub_evacuations`` and ``shrink_events`` count the
  sections opened, and ``regen_events`` the minidisks minted — absent
  when none were;
* the chip programs and erases made in each section, less those of the
  sections nested in it, are what the ledger charged that cause over
  the dispatch;
* a section that kept the chip busy shows in the record's segments.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

from repro import context
from repro.io.queue import OP_READ, OP_WRITE, DeviceQueue
from repro.obs.endurance import EnduranceLedger
from repro.obs.reqtrace import ReqContext, ReqTracer
from repro.ssd.ftl import FTLConfig, PageMappedFTL
from tests.ssd.test_scrub import _age_written_blocks

BACKGROUND = ("gc", "scrub", "shrink", "regen")
COUNTERS = {"gc": "gc_passes", "scrub": "scrub_evacuations",
            "shrink": "shrink_events"}


class Spy:
    """Logs every section a sampled request opens, with the chip's
    program/erase/busy counters at its ends."""

    def __init__(self, monkeypatch) -> None:
        self.device = None
        self.ledger = None
        self.events: list[tuple] = []
        enter, leave = ReqContext.enter, ReqContext.exit

        def spy_enter(ctx, name, busy_now):
            self.events.append(("enter", name, ctx._stack[-1],
                                self.ledger.current_cause(), self._now()))
            enter(ctx, name, busy_now)

        def spy_exit(ctx, busy_now):
            self.events.append(("exit", ctx._stack[-1], None, None,
                                self._now()))
            leave(ctx, busy_now)

        monkeypatch.setattr(ReqContext, "enter", spy_enter)
        monkeypatch.setattr(ReqContext, "exit", spy_exit)

    def _now(self) -> tuple:
        stats = self.device.chip.stats
        return stats.programs, stats.erases, stats.busy_us


def _sections(events: list[tuple]) -> tuple[dict, collections.Counter,
                                            list[tuple[str, str]]]:
    """Per name: programs/erases/busy made inside its sections but not in
    one nested in them; how many opened; ``(parent, name)`` pairs."""
    own = {name: [0, 0, 0.0] for name in BACKGROUND}
    opened: collections.Counter = collections.Counter()
    nesting = []
    stack: list[list] = []
    for kind, name, parent, cause, now in events:
        if kind == "enter":
            assert cause == name, (
                f"{name} section opened under ledger cause {cause!r}")
            opened[name] += 1
            nesting.append((parent, name))
            stack.append([name, now, [0, 0, 0.0]])
            continue
        top, start, nested = stack.pop()
        assert top == name
        spent = [end - begin for end, begin in zip(now, start)]
        for i in range(3):
            own[top][i] += spent[i] - nested[i]
        if stack:
            for i in range(3):
                stack[-1][2][i] += spent[i]
    assert not stack, "a section was left open"
    return own, opened, nesting


def drive(device, queue, spy, ops, by_minidisk=False) -> list[dict]:
    """Dispatch ``ops`` (``(code, lba, payload)``, an LBA folded into a
    live minidisk ``by_minidisk``); check each record."""
    handle = device.chip._endurance
    seen = []
    for code, lba, payload in ops:
        target = None
        if by_minidisk:
            live = [m.mdisk_id for m in device.minidisks if m.is_active]
            if not live:
                break
            target = live[lba % len(live)]
            lba %= device.minidisk(target).size_lbas
        programs = dict(handle.programs)
        erases = dict(handle.erases)
        minted = device.stats.regenerated_minidisks
        spy.events.clear()
        queue.dispatch(code, lba,
                       payloads=None if payload is None else [payload],
                       mdisk_id=target)
        record = device._reqtrace.records[-1]
        own, opened, nesting = _sections(spy.events)
        for parent, name in nesting:
            if name == "gc":
                assert parent in ("device", "scrub"), (
                    f"gc opened inside {parent!r}")
        attrs = record["attrs"]
        for name, counter in COUNTERS.items():
            assert attrs.get(counter, 0) == opened[name], (counter, attrs)
        minted = device.stats.regenerated_minidisks - minted
        if minted:
            assert attrs["regen_events"] == minted
        else:
            assert "regen_events" not in attrs, attrs
        for name in BACKGROUND:
            assert (handle.programs[name] - programs[name],
                    handle.erases[name] - erases[name]) == tuple(
                        own[name][:2]), (name, own[name])
            if own[name][2] > 0.0:
                assert name in record["segments"], (name, record)
        seen.append({"opened": opened, "nesting": nesting,
                     "minted": minted})
    return seen


def churn(seed: int, count: int, span: int):
    rng = np.random.default_rng(seed)
    for step in range(count):
        lba = int(rng.integers(0, span))
        if step % 5 == 4:
            yield OP_READ, lba, None
        else:
            yield OP_WRITE, lba, bytes([step % 251]) * 16


@pytest.fixture
def spy(monkeypatch):
    return Spy(monkeypatch)


def _scoped(spy, build):
    ledger = EnduranceLedger()
    with context.scoped(reqtrace=ReqTracer(seed=1, every=1,
                                           capacity=1_000_000),
                        endurance=ledger):
        device = build()
        queue = DeviceQueue(device)
    spy.device, spy.ledger = device, ledger
    return device, queue


def _total(seen, name) -> int:
    return sum(entry["opened"][name] for entry in seen)


def test_gc_inside_a_sampled_write(spy, make_chip):
    device, queue = _scoped(spy, lambda: PageMappedFTL.for_chip(
        make_chip(seed=3), FTLConfig(overprovision=0.25, buffer_opages=8,
                                     gc_reserve_blocks=2)))
    seen = drive(device, queue, spy,
                 churn(3, 1500, device.n_lbas))
    assert _total(seen, "gc") > 10


def test_scrub_inside_a_sampled_request_and_gc_nested_in_it(
        spy, make_chip, policy, fast_model):
    device, queue = _scoped(spy, lambda: PageMappedFTL.for_chip(
        make_chip(seed=5, variation_sigma=0.0), FTLConfig(
            overprovision=0.25, buffer_opages=8, gc_reserve_blocks=2,
            scrub_interval_writes=4, scrub_batch_fpages=32)))
    # A full device whose data sits past its level's ECC: each autoscrub
    # tick evacuates, and the evacuations use up the free blocks until
    # one has to force a GC pass.
    for lba in range(device.n_lbas):
        device.write(lba, bytes([lba % 251]) * 16)
    device.flush()
    _age_written_blocks(device.chip,
                        int(policy.pec_limits(fast_model)[0]) + 1)
    seen = drive(device, queue, spy, churn(5, 300, device.n_lbas))
    assert _total(seen, "scrub") > 10
    assert any(("scrub", "gc") in entry["nesting"] for entry in seen)


@pytest.mark.parametrize("mode", ("shrink", "regen"))
def test_capacity_work_inside_a_sampled_write(spy, make_salamander, mode):
    device, queue = _scoped(spy, lambda: make_salamander(mode=mode,
                                                         seed=7))
    seen = drive(device, queue, spy, churn(7, 20_000, 1 << 20),
                 by_minidisk=True)
    assert _total(seen, "shrink") > 0
    if mode == "regen":
        assert _total(seen, "regen") > 0
        assert sum(entry["minted"] for entry in seen) > 0
        # Zero-mint passes are the common case, and must bump nothing.
        assert any(entry["opened"]["regen"] and not entry["minted"]
                   for entry in seen)

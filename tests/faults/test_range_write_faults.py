"""Fault hits and crashes inside a range write.

The write kernel takes a whole range in one call, but the ``ftl.write``
fault site still counts one hit per *member*, taken before that
member's NVRAM insert — so a plan written against single writes fires
on the same LBA when the same writes arrive as ranges, and a crash in
the middle of a range leaves exactly the members before it acked.
"""

from __future__ import annotations

import pytest

from repro import context
from repro.errors import PowerLossError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults.harness import remount_after_crash
from repro.salamander.device import SalamanderSSD

from .test_crash_consistency import FLAVOURS, build_device

LBAS = 32           # one test minidisk; well inside the flat devices
SPAN = 8            # range length == write-buffer capacity

PLANS = {
    "when": (FaultSpec(site="ftl.write", fault="crash", when=22),),
    "count": (FaultSpec(site="ftl.write", fault="crash", when=22, count=3),),
    # Hits 10..17 are LBAs 9..16 on the first pass; only LBA 13 matches,
    # and keeps matching while its retries stay inside the window.
    "match": (FaultSpec(site="ftl.write", fault="crash", when=10, count=8,
                        match={"lba": 13}),),
    "several": (FaultSpec(site="ftl.write", fault="crash", when=5),
                FaultSpec(site="ftl.write", fault="crash", when=30, count=2),
                FaultSpec(site="ftl.write", fault="crash", when=44,
                          match={"lba": 9})),
}


def _write(device, lbas, payloads):
    """Singles for one LBA, a range for more; mdisk 0 on Salamander."""
    address = (0, lbas[0]) if isinstance(device, SalamanderSSD) \
        else (lbas[0],)
    if len(lbas) == 1:
        device.write(*address, payloads[0])
    else:
        device.write_range(*address, payloads)


def drive(device, span: int, passes: int = 2):
    """Write LBAs 0..LBAS-1 in order, ``span`` per call, ``passes``
    times; a crash remounts and resumes at the member that crashed (the
    host retries what was never acked). Returns the final device and
    the (call start, members acked) of every call a crash cut short."""
    torn = []
    for generation in range(passes):
        pending = list(range(LBAS))
        while pending:
            lbas = pending[:span]
            payloads = [f"g{generation}-{lba}".encode() for lba in lbas]
            accepted = device.stats.host_writes
            try:
                _write(device, lbas, payloads)
                landed = len(lbas)
            except PowerLossError:
                landed = device.stats.host_writes - accepted
                torn.append((lbas[0], landed))
                device = remount_after_crash(device)
            pending = pending[landed:]
    return device, torn


def _read(device, lba):
    return (device.read(0, lba) if isinstance(device, SalamanderSSD)
            else device.read(lba))


@pytest.mark.parametrize("plan_name", PLANS)
@pytest.mark.parametrize("flavour", FLAVOURS)
def test_write_faults_fire_on_the_same_lba_singly_or_in_a_range(
        flavour, plan_name, make_chip, ftl_config, make_baseline,
        make_salamander):
    fired, contents = {}, {}
    for span in (1, SPAN, 5):
        injector = FaultInjector(FaultPlan(events=PLANS[plan_name]))
        with context.scoped(faults=injector):
            device = build_device(flavour, make_chip, ftl_config,
                                  make_baseline, make_salamander, seed=3)
            device, torn = drive(device, span)
            fired[span] = [(shot.hit, shot.context["lba"])
                           for shot in injector.fired]
            contents[span] = [_read(device, lba) for lba in range(LBAS)]
            device._audit_fastpath()
        if span > 1:
            # The plan's crashes landed inside ranges, not on their edges.
            assert any(0 < landed < span for _start, landed in torn), torn
    assert fired[1], "the plan never fired"
    assert fired[SPAN] == fired[1] and fired[5] == fired[1]
    opage = device.geometry.opage_bytes
    assert contents[1] == [f"g1-{lba}".encode().ljust(opage, b"\0")
                           for lba in range(LBAS)]
    assert contents[SPAN] == contents[1] and contents[5] == contents[1]


def _hits_of_first_pass(site, flavour, fixtures) -> int:
    """Dry run: how often ``site`` is hit while generation 0 is written."""
    never = FaultPlan(events=(FaultSpec(site=site, fault="crash",
                                        when=10**9),))
    injector = FaultInjector(never)
    with context.scoped(faults=injector):
        drive(build_device(flavour, *fixtures, seed=3), SPAN, passes=1)
        return injector.hits(site)


@pytest.mark.parametrize("site", ("ftl.write", "ftl.drain.pre_program",
                                  "ftl.drain.post_program"))
@pytest.mark.parametrize("flavour", FLAVOURS)
def test_mid_range_crash_keeps_acked_members_and_old_or_new_rest(
        flavour, site, make_chip, ftl_config, make_baseline,
        make_salamander):
    """Crash an overwriting range in its middle: after the remount the
    members before the crash read new, the rest old or new — never
    anything else."""
    fixtures = (make_chip, ftl_config, make_baseline, make_salamander)
    # ftl.write: the 13th hit of the overwrite pass is member 4 of its
    # second range. The drain sites: the pass's 2nd drain is the one
    # member 4 of its first range waits for (the buffer holds SPAN).
    first, offset = (SPAN, 13) if site == "ftl.write" else (0, 2)
    when = _hits_of_first_pass(site, flavour, fixtures) + offset
    plan = FaultPlan(events=(FaultSpec(site=site, fault="crash",
                                       when=when),))
    lbas = list(range(first, first + SPAN))
    with context.scoped(faults=FaultInjector(plan)):
        device = build_device(flavour, *fixtures, seed=3)
        device, torn = drive(device, SPAN, passes=1)
        assert torn == []
        if first:
            _write(device, list(range(first)),
                   [f"new-{lba}".encode() for lba in range(first)])
        accepted = device.stats.host_writes
        with pytest.raises(PowerLossError) as crash:
            _write(device, lbas, [f"new-{lba}".encode() for lba in lbas])
        assert crash.value.site == site
        landed = device.stats.host_writes - accepted
        assert landed == 4
        device = remount_after_crash(device)
        opage = device.geometry.opage_bytes
        for lba in lbas[:landed]:
            assert _read(device, lba) == f"new-{lba}".encode().ljust(
                opage, b"\0"), f"acked member {lba} lost"
        for lba in lbas[landed:]:
            assert _read(device, lba) in (
                f"g0-{lba}".encode().ljust(opage, b"\0"),
                f"new-{lba}".encode().ljust(opage, b"\0")), (
                f"un-acked member {lba} is neither old nor new")
        device._audit_fastpath()

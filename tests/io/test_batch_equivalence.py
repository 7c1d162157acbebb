"""Queued == direct, per request: the contract of ``DeviceQueue.dispatch``.

``dispatch`` (one request as its fields, the error handed back in the
result tuple) must make exactly the device call a direct caller would:
identical results, errors, chip RNG draw order, wear, device stats,
endurance-ledger cause attribution and FTL fast-path invariants —
across every device flavour, healthy or worn — and the work and service
it reports must be what that call cost the chip. Request tracing must
change none of it. The direct calls here are the oracle
(docs/IO_PIPELINE.md "One dispatch core").
"""

from __future__ import annotations

from operator import sub

import numpy as np
import pytest

from repro import context
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.rber import PowerLawRBER
from repro.io import OP_CODES, DeviceQueue
from repro.obs.endurance import EnduranceLedger
from repro.obs.reqtrace import ReqTracer
from repro.ssd.ftl import FTLConfig, PageMappedFTL

from tests.io.conftest import FLAVOURS, device_state, queue_state


def mixed_ops(n_lbas: int, count: int, seed: int):
    """Deterministic read-heavy mix over ``[0, n_lbas)``."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(count):
        roll = rng.random()
        lba = int(rng.integers(0, n_lbas))
        if roll < 0.6:
            ops.append(("read", lba, 1))
        elif roll < 0.8:
            ops.append(("write", lba, 1))
        elif roll < 0.9:
            ops.append(("trim", lba, 1))
        else:
            ops.append(("read_range", lba, min(4, n_lbas - lba)))
    return ops


def _payloads(op, lba):
    return [bytes([lba % 7]) * 8] if op == "write" else None


def direct_call(device, op, lba, count, mdisk_id):
    """The one device method call a request stands for."""
    address = (lba,) if mdisk_id is None else (mdisk_id, lba)
    if op == "read":
        return [device.read(*address)]
    if op == "read_range":
        return device.read_range(*address, count)
    if op == "write":
        device.write_range(*address, _payloads(op, lba))
    elif op == "trim":
        device.trim(*address)
    return None


def run_direct(device, ops, mdisk_id=None):
    """Reference loop: the direct calls, errors caught, each measured
    against the chip as ``(result, error, work_us, service_us)``."""
    chip = device.chip
    measured = []
    for op, lba, count in ops:
        busy_before = chip.stats.busy_us
        chan_before = list(chip.channel_busy_us)
        result = error = None
        try:
            result = direct_call(device, op, lba, count, mdisk_id)
        except Exception as exc:  # noqa: BLE001 - compared per request
            error = exc
        measured.append((result, error, chip.stats.busy_us - busy_before,
                         max(map(sub, chip.channel_busy_us, chan_before))))
    return measured


def run_fields(queue, ops, mdisk_id=None):
    return [queue.dispatch(OP_CODES[op], lba, count, _payloads(op, lba),
                           mdisk_id)
            for op, lba, count in ops]


def assert_measured_match(by_direct, by_fields, ops):
    assert len(by_direct) == len(by_fields) == len(ops)
    for member, (direct, fields) in enumerate(zip(by_direct, by_fields)):
        result, error, work, service = direct
        # (result, error, submit_us, start_us, end_us, work_us)
        assert fields[0] == result, (member, ops[member])
        assert type(fields[1]) is type(error), (member, ops[member])
        assert str(fields[1]) == str(error), (member, ops[member])
        assert fields[5] == work, (member, ops[member])
        assert fields[4] == fields[3] + service, (member, ops[member])


class TestDispatchEquivalence:
    @pytest.mark.parametrize("flavour", FLAVOURS)
    def test_all_flavours_bit_identical(self, flavour, make_device,
                                        device_io):
        direct_dev = make_device(flavour, seed=17)
        field_dev = make_device(flavour, seed=17)
        mdisk = device_io(direct_dev).mdisk_id
        n_lbas = (direct_dev.minidisk(mdisk).size_lbas
                  if mdisk is not None else direct_dev.n_lbas)
        ops = mixed_ops(n_lbas, 400, seed=31)
        for lba in range(n_lbas):
            for device in (direct_dev, field_dev):
                if mdisk is None:
                    device.write(lba, bytes([lba % 251]) * 8)
                else:
                    device.write(mdisk, lba, bytes([lba % 251]) * 8)
        by_direct = run_direct(direct_dev, ops, mdisk)
        by_fields = run_fields(DeviceQueue(field_dev), ops, mdisk)
        assert_measured_match(by_direct, by_fields, ops)
        assert (device_state(direct_dev, mdisk, n_lbas)
                == device_state(field_dev, mdisk, n_lbas))
        direct_dev._audit_fastpath()
        field_dev._audit_fastpath()

    @staticmethod
    def _worn_ftl():
        geometry = FlashGeometry(blocks=32, fpages_per_block=32,
                                 channels=2)
        chip = FlashChip(
            geometry, seed=23, variation_sigma=0.2,
            read_disturb_rber=2e-4,
            rber_model=PowerLawRBER(scale=2e-6, exponent=1.4,
                                    floor=2e-3))
        ftl = PageMappedFTL(
            chip, 200, FTLConfig(overprovision=0.25, buffer_opages=16))
        for lba in range(200):
            ftl.write(lba, bytes([lba % 251]) * 8)
        return ftl

    def test_worn_chip_errors_bit_identical(self):
        """Uncorrectable reads keep both sides in lockstep: the error
        comes back where the direct call raises it, after the same RNG
        draws, charged the same busy time."""
        ops = mixed_ops(200, 3000, seed=77)
        direct_dev, field_dev = self._worn_ftl(), self._worn_ftl()
        queue = DeviceQueue(field_dev)
        by_direct = run_direct(direct_dev, ops)
        by_fields = run_fields(queue, ops)
        assert queue.stats.errors > 0, "fixture must produce errors"
        assert queue.stats.errors == sum(
            error is not None for _r, error, _w, _s in by_direct)
        assert_measured_match(by_direct, by_fields, ops)
        assert (device_state(direct_dev, lbas=200)
                == device_state(field_dev, lbas=200))
        direct_dev._audit_fastpath()
        field_dev._audit_fastpath()

    @pytest.mark.parametrize("flavour", ("ftl", "baseline"))
    def test_endurance_causes_identical(self, flavour, make_device):
        """The wear ledger attributes every program/erase to the same
        cause whether a request is dispatched or called directly."""
        ops = mixed_ops(48, 600, seed=5)

        def causes(fields: bool):
            with context.scoped(endurance=EnduranceLedger(pec_limit=3000.0)):
                device = make_device(flavour, seed=17)
                for lba in range(48):
                    device.write(lba, bytes(8))
                if fields:
                    run_fields(DeviceQueue(device), ops)
                else:
                    run_direct(device, ops)
                handle = device.chip._endurance
                return (dict(handle.programs), dict(handle.erases),
                        dict(handle.program_opages))

        assert causes(fields=False) == causes(fields=True)

    def test_reqtrace_sampling_identical(self):
        """Tracing observes, never steers: with a reqtrace sampler
        scoped — every request sampled — ``dispatch`` hands back the
        same measured tuples and leaves queue and chip in the same
        state as without one, errors included."""
        ops = mixed_ops(200, 600, seed=9)

        def run(traced: bool):
            tracer = ReqTracer(seed=3, every=1) if traced else None
            with context.scoped(reqtrace=tracer):
                queue = DeviceQueue(self._worn_ftl())
                measured = [(m[0], type(m[1]), str(m[1])) + m[2:]
                            for m in run_fields(queue, ops)]
            if traced:
                assert tracer.sampled == len(ops)
                assert [r["tag"] for r in tracer.records] == list(
                    range(len(ops)))
            return measured, queue_state(queue, lbas=200)

        untraced, traced = run(traced=False), run(traced=True)
        assert traced == untraced
        assert any(m[1] is not type(None) for m in traced[0]), (
            "fixture must produce errors")

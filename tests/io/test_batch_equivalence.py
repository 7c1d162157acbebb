"""Fields==objects bit-identity: the contract of ``DeviceQueue.dispatch``.

``dispatch`` (one request as its fields, the error handed back in the
result tuple) must be an exact drop-in for the ``IORequest`` path with
each error caught: identical results, errors, timings, chip RNG draw
order, wear, endurance-ledger cause attribution, request-trace sampling
and FTL fast-path invariants — across every device flavour, healthy or
worn. The two surfaces share ``_serve``/``_meter``; these tests are what
says so (docs/IO_PIPELINE.md "One dispatch core").
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import context
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.rber import PowerLawRBER
from repro.io import OP_CODES, DeviceQueue, IORequest
from repro.obs.endurance import EnduranceLedger
from repro.obs.reqtrace import ReqTracer
from repro.ssd.ftl import FTLConfig, PageMappedFTL

from tests.io.conftest import FLAVOURS, queue_state


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


def run_objects(queue, ops, mdisk_id=None):
    """Reference loop: one closed-loop ``IORequest`` per op, errors
    swallowed like ``dispatch`` hands them back. ``submit`` + ``poll``
    rather than ``execute``: an errored completion stays pollable, so
    every member has a completion to compare."""
    measured = []
    for op, lba, count in ops:
        request = IORequest(op=op, lba=lba, count=count,
                            payloads=_payloads(op, lba), mdisk_id=mdisk_id)
        try:
            queue.submit(request)
        except Exception:
            pass
        (done,) = queue.poll()
        measured.append((done.result, done.error, done.submit_us,
                         done.start_us, done.end_us, done.work_us))
    return measured


def run_fields(queue, ops, mdisk_id=None):
    return [queue.dispatch(OP_CODES[op], lba, count, _payloads(op, lba),
                           mdisk_id)
            for op, lba, count in ops]


def assert_measured_match(by_objects, by_fields, ops):
    assert len(by_objects) == len(by_fields) == len(ops)
    for member, (objects, fields) in enumerate(zip(by_objects, by_fields)):
        # (result, error, submit_us, start_us, end_us, work_us)
        assert objects[0] == fields[0], (member, ops[member])
        assert type(objects[1]) is type(fields[1]), (member, ops[member])
        assert objects[2:] == fields[2:], (member, ops[member])


class TestDispatchEquivalence:
    @pytest.mark.parametrize("flavour", FLAVOURS)
    def test_all_flavours_bit_identical(self, flavour, make_device,
                                        device_io):
        object_dev = make_device(flavour, seed=17)
        field_dev = make_device(flavour, seed=17)
        mdisk = device_io(object_dev).mdisk_id
        n_lbas = (object_dev.minidisk(mdisk).size_lbas
                  if mdisk is not None else object_dev.n_lbas)
        ops = mixed_ops(n_lbas, 400, seed=31)
        for lba in range(n_lbas):
            for device in (object_dev, field_dev):
                if mdisk is None:
                    device.write(lba, bytes([lba % 251]) * 8)
                else:
                    device.write(mdisk, lba, bytes([lba % 251]) * 8)
        object_q = DeviceQueue(object_dev, keep_latencies=True)
        field_q = DeviceQueue(field_dev, keep_latencies=True)
        by_objects = run_objects(object_q, ops, mdisk)
        by_fields = run_fields(field_q, ops, mdisk)
        assert_measured_match(by_objects, by_fields, ops)
        assert (queue_state(object_q, mdisk, n_lbas)
                == queue_state(field_q, mdisk, n_lbas))
        object_dev._audit_fastpath()
        field_dev._audit_fastpath()

    def test_worn_chip_errors_bit_identical(self):
        """Uncorrectable reads keep both surfaces in lockstep: the error
        comes back where the object path raises it, after the same RNG
        draws, charged the same busy time."""

        def build():
            geometry = FlashGeometry(blocks=32, fpages_per_block=32,
                                     channels=2)
            chip = FlashChip(
                geometry, seed=23, variation_sigma=0.2,
                read_disturb_rber=2e-4,
                rber_model=PowerLawRBER(scale=2e-6, exponent=1.4,
                                        floor=2e-3))
            ftl = PageMappedFTL(
                chip, 200, FTLConfig(overprovision=0.25,
                                     buffer_opages=16))
            for lba in range(200):
                ftl.write(lba, bytes([lba % 251]) * 8)
            return DeviceQueue(ftl, keep_latencies=True)

        ops = mixed_ops(200, 3000, seed=77)
        object_q, field_q = build(), build()
        by_objects = run_objects(object_q, ops)
        by_fields = run_fields(field_q, ops)
        assert field_q.stats.errors > 0, "fixture must produce errors"
        assert_measured_match(by_objects, by_fields, ops)
        assert ([repr(x) for x in object_q.stats.latencies_us]
                == [repr(x) for x in field_q.stats.latencies_us])
        assert (queue_state(object_q, lbas=200)
                == queue_state(field_q, lbas=200))
        object_q.device._audit_fastpath()
        field_q.device._audit_fastpath()

    @pytest.mark.parametrize("flavour", ("ftl", "baseline"))
    def test_endurance_causes_identical(self, flavour, make_device):
        """The wear ledger attributes every program/erase to the same
        cause under both submission surfaces."""
        ops = mixed_ops(48, 600, seed=5)

        def causes(fields: bool):
            with context.scoped(endurance=EnduranceLedger(pec_limit=3000.0)):
                device = make_device(flavour, seed=17)
                for lba in range(48):
                    device.write(lba, bytes(8))
                queue = DeviceQueue(device)
                (run_fields if fields else run_objects)(queue, ops)
                handle = device.chip._endurance
                return (dict(handle.programs), dict(handle.erases),
                        dict(handle.program_opages))

        assert causes(fields=False) == causes(fields=True)

    def test_reqtrace_sampling_identical(self, make_baseline):
        """With a reqtrace sampler scoped ``dispatch`` bridges every
        member to a request, so the same submissions are sampled and
        the device ends up in the same state."""
        ops = mixed_ops(16, 200, seed=9)

        def run(fields: bool):
            tracer = ReqTracer(seed=3, every=8)
            with context.scoped(reqtrace=tracer):
                device = make_baseline(seed=3, variation_sigma=0.0,
                                       inject_errors=False)
                for lba in range(16):
                    device.write(lba, bytes([lba]) * 8)
                device.flush()
                queue = DeviceQueue(device)
                (run_fields if fields else run_objects)(queue, ops)
                return queue_state(queue), tracer.sampled

        by_objects = run(fields=False)
        by_fields = run(fields=True)
        assert by_objects == by_fields
        assert by_fields[1] > 0, "sampler must actually sample"

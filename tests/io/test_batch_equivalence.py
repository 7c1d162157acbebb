"""Batched==scalar bit-identity: the vectorised hot path's contract.

``DeviceQueue.execute_vector`` must be an exact drop-in for the scalar
``execute`` loop: identical results, errors, timing columns, chip RNG
draw order, wear, endurance-ledger cause attribution, and FTL fast-path
invariants — across every device flavour, healthy or worn. Batching is a
representation change, never a behaviour change (docs/PERFORMANCE.md
"Batched IO path").
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.rber import PowerLawRBER
from repro.io import DeviceQueue, IORequest
from repro.io.vector import IOVector
from repro.ssd.ftl import FTLConfig, PageMappedFTL

from tests.io.conftest import FLAVOURS


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


def build_vector(ops, mdisk_id=None):
    vector = IOVector(capacity=len(ops))
    for op, lba, count in ops:
        vector.append(op, lba=lba, count=count,
                      payloads=([bytes([lba % 7]) * 8]
                                if op == "write" else None),
                      mdisk_id=mdisk_id)
    return vector


def run_scalar(queue, ops, mdisk_id=None):
    """Reference loop: one closed-loop request per op, errors swallowed
    like the vector path records them. ``submit`` + ``poll`` rather than
    ``execute``: an errored completion stays pollable, so every member
    has a completion to compare."""
    completions = []
    for op, lba, count in ops:
        request = IORequest(
            op=op, lba=lba, count=count,
            payloads=([bytes([lba % 7]) * 8] if op == "write" else None),
            mdisk_id=mdisk_id)
        try:
            queue.submit(request)
        except Exception:
            pass
        (completion,) = queue.poll()
        completions.append(completion)
    return completions


def queue_state(queue):
    stats = {k: v for k, v in vars(queue.stats).items()
             if k != "latencies_us"}
    return (queue.clock_us, list(queue._channel_free), stats)


def chip_state(chip):
    return (chip.rng.bit_generator.state, dict(vars(chip.stats)),
            list(chip.channel_busy_us), chip.wear_summary())


def assert_completions_match(scalar, vector_completions, ops):
    assert len(scalar) == len(vector_completions)
    for member, completion in enumerate(scalar):
        batched = vector_completions.completion(member)
        for field in ("submit_us", "start_us", "end_us", "work_us"):
            assert getattr(completion, field) == getattr(batched, field), \
                (member, ops[member], field)
        assert (completion.error is None) == (batched.error is None), \
            (member, ops[member])
        assert completion.result == batched.result, (member, ops[member])


class TestExecuteVectorEquivalence:
    @pytest.mark.parametrize("flavour", FLAVOURS)
    def test_all_flavours_bit_identical(self, flavour, make_device,
                                        device_io):
        scalar_dev = make_device(flavour, seed=17)
        vector_dev = make_device(flavour, seed=17)
        mdisk = device_io(scalar_dev).mdisk_id
        n_lbas = (scalar_dev.minidisk(mdisk).size_lbas
                  if mdisk is not None else scalar_dev.n_lbas)
        ops = mixed_ops(n_lbas, 400, seed=31)
        for lba in range(n_lbas):
            if mdisk is None:
                scalar_dev.write(lba, bytes([lba % 251]) * 8)
                vector_dev.write(lba, bytes([lba % 251]) * 8)
            else:
                scalar_dev.write(mdisk, lba, bytes([lba % 251]) * 8)
                vector_dev.write(mdisk, lba, bytes([lba % 251]) * 8)
        scalar_q = DeviceQueue(scalar_dev)
        vector_q = DeviceQueue(vector_dev)
        scalar = run_scalar(scalar_q, ops, mdisk)
        batched = vector_q.execute_vector(build_vector(ops, mdisk))
        assert chip_state(scalar_dev.chip) == chip_state(vector_dev.chip)
        assert queue_state(scalar_q) == queue_state(vector_q)
        assert_completions_match(scalar, batched, ops)
        scalar_dev._audit_fastpath()
        vector_dev._audit_fastpath()

    def test_worn_chip_errors_bit_identical(self):
        """Uncorrectable reads keep both paths in lockstep (the batched
        read kernel must charge accumulator *deltas*, not raw latencies,
        and record per-member errors exactly where the scalar loop
        raises them)."""

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
            return ftl

        ops = mixed_ops(200, 3000, seed=77)
        scalar_dev, vector_dev = build(), build()
        scalar_q, vector_q = DeviceQueue(scalar_dev), DeviceQueue(vector_dev)
        scalar = run_scalar(scalar_q, ops)
        batched = vector_q.execute_vector(build_vector(ops))
        assert vector_q.stats.errors > 0, "fixture must produce errors"
        assert chip_state(scalar_dev.chip) == chip_state(vector_dev.chip)
        assert queue_state(scalar_q) == queue_state(vector_q)
        assert ([repr(x) for x in scalar_q.stats.latencies_us]
                == [repr(x) for x in vector_q.stats.latencies_us])
        assert_completions_match(scalar, batched, ops)
        scalar_dev._audit_fastpath()
        vector_dev._audit_fastpath()

    @pytest.mark.parametrize("flavour", ("ftl", "baseline"))
    def test_endurance_causes_identical(self, flavour, make_device):
        """The wear ledger attributes every program/erase to the same
        cause under both submission surfaces."""
        from repro.obs import endurance

        ops = mixed_ops(48, 600, seed=5)

        def causes(batched: bool):
            with endurance.installed(pec_limit=3000.0):
                device = make_device(flavour, seed=17)
                for lba in range(48):
                    device.write(lba, bytes(8))
                queue = DeviceQueue(device)
                if batched:
                    queue.execute_vector(build_vector(ops))
                else:
                    run_scalar(queue, ops)
                handle = device.chip._endurance
                return (dict(handle.programs), dict(handle.erases),
                        dict(handle.program_opages))

        assert causes(batched=False) == causes(batched=True)

    def test_vector_scalar_fallback_with_reqtrace(self, make_baseline):
        """With a reqtrace sampler installed the vector path must take
        the fully-traced scalar route and still match."""
        from repro.obs import reqtrace

        ops = mixed_ops(16, 200, seed=9)

        def run(batched: bool):
            with reqtrace.installed(reqtrace.ReqTracer(seed=3, every=8)) \
                    as tracer:
                device = make_baseline(seed=3, variation_sigma=0.0,
                                       inject_errors=False)
                for lba in range(16):
                    device.write(lba, bytes([lba]) * 8)
                device.flush()
                queue = DeviceQueue(device)
                if batched:
                    queue.execute_vector(build_vector(ops))
                else:
                    run_scalar(queue, ops)
                return (queue_state(queue), chip_state(device.chip),
                        tracer.sampled)

        scalar_state = run(batched=False)
        vector_state = run(batched=True)
        assert scalar_state == vector_state
        assert vector_state[2] > 0, "sampler must actually sample"


class TestWorkloadVectorEquivalence:
    def test_ops_vector_matches_ops_stream(self):
        """Generator batching re-expresses the identical traffic."""
        from repro.workloads import MixedGenerator, UniformGenerator
        from repro.workloads.generators import OpType

        scalar_gen = MixedGenerator(
            UniformGenerator(64, seed=2), read_fraction=0.4,
            trim_fraction=0.1, seed=4)
        vector_gen = MixedGenerator(
            UniformGenerator(64, seed=2), read_fraction=0.4,
            trim_fraction=0.1, seed=4)
        scalar_ops = list(scalar_gen.ops(500))
        vector = vector_gen.ops_vector(500)
        assert len(vector) == 500
        assert (scalar_gen.rng.bit_generator.state
                == vector_gen.rng.bit_generator.state)
        for index, operation in enumerate(scalar_ops):
            request = vector.request(index)
            assert request.op == operation.op.value
            assert request.lba == operation.lba
            if operation.op is OpType.WRITE:
                assert request.payloads == [operation.payload]
            else:
                assert request.payloads is None

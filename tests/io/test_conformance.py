"""BlockDevice conformance: every flavour, one protocol, two paths.

Each device flavour must (a) satisfy the :class:`BlockDevice` protocol,
(b) expose the uniform control surface, and (c) behave *identically*
whether IO arrives through the submission queue or through the legacy
direct method calls — same bytes, same RNG draw order, same fast-path
invariants.
"""

import pytest

from repro.errors import InvalidLBAError
from repro.io import BlockDevice, device_kind_of
from repro.io.request import OP_READ

from tests.io.conftest import FLAVOURS, expected_kind


def payload(tag: int) -> bytes:
    return bytes([tag % 251]) * 24


@pytest.mark.parametrize("flavour", FLAVOURS)
class TestProtocol:
    def test_isinstance_blockdevice(self, flavour, make_device):
        device = make_device(flavour)
        assert isinstance(device, BlockDevice)

    def test_device_kind(self, flavour, make_device):
        device = make_device(flavour)
        assert device.device_kind == expected_kind(flavour)
        assert device_kind_of(device) == expected_kind(flavour)

    def test_capacity_surface(self, flavour, make_device):
        device = make_device(flavour)
        assert device.capacity_lbas > 0
        assert device.capacity_bytes == (
            device.capacity_lbas * device.chip.geometry.opage_bytes)

    def test_health_keys(self, flavour, make_device):
        health = make_device(flavour).health()
        for key in ("device_kind", "alive", "capacity_lbas",
                    "capacity_bytes", "live_lbas", "host_writes",
                    "host_reads"):
            assert key in health, f"{flavour} health misses {key}"
        assert health["device_kind"] == expected_kind(flavour)
        assert health["alive"] is True

    def test_fresh_device_is_alive(self, flavour, make_device):
        assert make_device(flavour).is_alive

    def test_queue_surface(self, flavour, make_device):
        device = make_device(flavour)
        queue = device.io_queue
        assert queue is device.io_queue  # stable
        assert queue.device_kind == expected_kind(flavour)
        assert queue.drain() == []
        # The queue is the only way in: no object-based submit/poll.
        assert not hasattr(device, "submit") and not hasattr(device, "poll")


@pytest.mark.parametrize("flavour", FLAVOURS)
class TestQueuedEqualsDirect:
    """The differential contract at device granularity.

    Two identically-seeded devices run the same workload — one through
    direct calls, one through the queue — and must end bit-identical:
    same read bytes, same chip RNG state (not one extra draw), same
    wear counters, clean fast-path audit on both.
    """

    def run_workload(self, io, direct: bool) -> list[bytes]:
        write = io.write_direct if direct else io.write_queued
        read = io.read_direct if direct else io.read_queued
        read_range = (io.read_range_direct if direct
                      else io.read_range_queued)
        trim = io.trim_direct if direct else io.trim_queued
        out = []
        for lba in range(24):
            write(lba, payload(lba))
        io.device.flush()
        for lba in range(0, 24, 3):
            out.append(read(lba))
        out.extend(read_range(4, 8))
        for lba in range(20, 24):
            trim(lba)
        for lba in range(8):  # overwrite: exercises GC pressure paths
            write(lba, payload(100 + lba))
        io.device.flush()
        out.extend(read_range(0, 8))
        return out

    def test_bit_identical_results(self, flavour, make_device, device_io):
        direct_dev = make_device(flavour, seed=13)
        queued_dev = make_device(flavour, seed=13)
        direct_out = self.run_workload(device_io(direct_dev), direct=True)
        queued_out = self.run_workload(device_io(queued_dev), direct=False)
        assert direct_out == queued_out
        # Identical RNG draw order, not merely identical data.
        assert (direct_dev.chip.rng.bit_generator.state
                == queued_dev.chip.rng.bit_generator.state)
        assert (direct_dev.chip.wear_summary()
                == queued_dev.chip.wear_summary())
        assert direct_dev.stats.snapshot() == queued_dev.stats.snapshot()
        direct_dev._audit_fastpath()
        queued_dev._audit_fastpath()

    def test_error_semantics_match(self, flavour, make_device, device_io):
        """The queue hands back exactly what the direct call raises.

        Flavours disagree on the exception for an out-of-range LBA
        (flat devices raise :class:`InvalidLBAError`, CVSS rejects
        beyond-capacity addresses, minidisks range-check per mDisk) —
        what the contract pins is that both paths raise the *same*
        type for the same request.
        """
        device = make_device(flavour, seed=13)
        io = device_io(device)
        bad_lba = 10 ** 9
        with pytest.raises(Exception) as direct_exc:
            io.read_direct(bad_lba)
        with pytest.raises(Exception) as queued_exc:
            io.read_queued(bad_lba)
        assert type(queued_exc.value) is type(direct_exc.value)
        assert str(queued_exc.value) == str(direct_exc.value)
        if flavour in ("ftl", "baseline"):
            assert isinstance(direct_exc.value, InvalidLBAError)


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_measured_latency_is_positive_for_flash_reads(
        flavour, make_device, device_io):
    device = make_device(flavour, seed=5)
    io = device_io(device)
    for lba in range(8):
        io.write_direct(lba, payload(lba))
    device.flush()
    result, error, submit, start, end, _work = device.io_queue.dispatch(
        OP_READ, 0, mdisk_id=io.mdisk_id)
    assert error is None and result == [io.read_direct(0)]
    assert end - start > 0.0
    assert end - submit >= end - start

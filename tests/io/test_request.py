"""The op-code table, and where the request-object invariants live now.

A request is :meth:`DeviceQueue.dispatch`'s fields and a completion the
tuple it returns — ``(result, error, submit_us, start_us, end_us,
work_us)``. ``TestIORequest`` and ``TestIOCompletion`` keep the checks
the deleted request and completion objects made, each pointed at what
makes it now: the device's own argument checks (an error handed back in
the tuple), the queue's meter, the request-trace record.
"""

import pytest

from repro import context
from repro.errors import ConfigError, InvalidLBAError
from repro.io import OP_CODES, OP_NAMES, DeviceQueue
from repro.io.request import (
    OP_FLUSH,
    OP_READ,
    OP_READ_RANGE,
    OP_TRIM,
    OP_TRIM_RANGE,
    OP_WRITE,
)
from repro.obs.reqtrace import ReqTracer


@pytest.fixture
def queue(make_baseline):
    """A deterministic baseline device with LBAs 0..7 on flash."""
    device = make_baseline(seed=3, variation_sigma=0.0, inject_errors=False)
    for lba in range(8):
        device.write(lba, bytes([lba]) * 8)
    device.flush()
    return DeviceQueue(device)


class TestOpCodes:
    def test_codes_index_names(self):
        codes = (OP_READ, OP_READ_RANGE, OP_WRITE, OP_TRIM, OP_TRIM_RANGE,
                 OP_FLUSH)
        assert codes == tuple(range(len(OP_NAMES)))
        assert OP_NAMES == ("read", "read_range", "write", "trim",
                            "trim_range", "flush")
        assert {OP_NAMES[code]: code for code in codes} == OP_CODES


class TestIORequest:
    def test_write_derives_count_from_payloads(self, make_baseline):
        # The request-trace record counts a write's payloads.
        tracer = ReqTracer(seed=1, every=1)
        with context.scoped(reqtrace=tracer):
            queue = DeviceQueue(make_baseline(seed=3))
            queue.dispatch(OP_WRITE, 4, 1, [b"a", b"b", b"c"])
            queue.dispatch(OP_READ_RANGE, 4, 3)
        write, read_range = tracer.records
        assert (write["op"], write["count"]) == ("write", 3)
        assert (read_range["op"], read_range["count"]) == ("read_range", 3)

    def test_write_needs_payloads(self, queue):
        # ``write_range`` refuses an empty write; nothing lands.
        host_writes = queue.device.stats.host_writes
        for payloads in (None, []):
            error = queue.dispatch(OP_WRITE, 0, 1, payloads)[1]
            assert isinstance(error, ConfigError)
        assert queue.device.stats.host_writes == host_writes
        assert queue.stats.errors == 2

    def test_read_is_single_lba(self, queue):
        # A point read reads one LBA whatever the count; a multi-LBA
        # read is ``read_range``.
        device = queue.device
        assert queue.dispatch(OP_READ, 0, 4)[0] == [device.read(0)]
        assert queue.dispatch(OP_READ_RANGE, 0, 4)[0] == [
            device.read(lba) for lba in range(4)]

    def test_unknown_op_rejected(self):
        assert "compare-and-swap" not in OP_CODES

    def test_negative_lba_and_count_rejected(self, queue):
        # The device's ``_check_lba`` and ``read_range``'s count check.
        assert isinstance(queue.dispatch(OP_READ, -1)[1], InvalidLBAError)
        assert isinstance(queue.dispatch(OP_READ_RANGE, 0, 0)[1],
                          ConfigError)
        assert queue.stats.errors == queue.stats.dispatched == 2

    def test_op_groups(self, queue):
        # Reads return data; writes, trims and flush return none.
        returns = {code: queue.dispatch(
            code, 0, 2, [b"w"] if code == OP_WRITE else None)[0] is not None
            for code in range(len(OP_NAMES))}
        assert returns == {OP_READ: True, OP_READ_RANGE: True,
                           OP_WRITE: False, OP_TRIM: False,
                           OP_TRIM_RANGE: False, OP_FLUSH: False}


class TestIOCompletion:
    def test_timing_decomposition(self, queue):
        result, error, submit, start, end, work = queue.dispatch(
            OP_READ, 0, at_us=10.0)
        assert error is None and result == [queue.device.read(0)]
        assert submit == 10.0 and start >= submit and end > start
        assert (end - submit) == pytest.approx(
            (start - submit) + (end - start))
        assert work == pytest.approx(end - start)  # one channel

    def test_deadline_flag(self, queue):
        end = queue.dispatch(OP_READ, 0, at_us=0.0, deadline_us=1e9)[4]
        assert queue.stats.deadline_misses == 0
        queue.dispatch(OP_READ, 1, at_us=end, deadline_us=end)
        assert queue.stats.deadline_misses == 1

    def test_no_deadline_never_missed(self, queue):
        queue.dispatch(OP_READ, 0, at_us=1e9)
        assert queue.stats.deadline_misses == 0

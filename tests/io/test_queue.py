"""DeviceQueue mechanics: clocks, backpressure, errors.

Timing assertions run with ``variation_sigma=0`` and error injection
off, so every flash read costs the same deterministic service time.
``dispatch`` returns ``(result, error, submit_us, start_us, end_us,
work_us)``: wait is ``start - submit``, service ``end - start`` and
latency ``end - submit``.
"""

import pytest

from repro import context
from repro.errors import ConfigError, InvalidLBAError
from repro.io import OP_CODES, DeviceQueue
from repro.io.request import (
    OP_FLUSH,
    OP_READ,
    OP_TRIM_RANGE,
    OP_WRITE,
)
from repro.obs import MetricsRegistry
from repro.obs.reqtrace import ReqTracer

from tests.io.conftest import queue_state


@pytest.fixture
def device(make_baseline):
    """Deterministic-latency baseline device with LBAs 0..15 on flash."""
    ssd = make_baseline(seed=3, variation_sigma=0.0, inject_errors=False)
    for lba in range(16):
        ssd.write(lba, bytes([lba]) * 8)
    ssd.flush()  # drain the NVRAM buffer so reads hit flash
    return ssd


def read(queue, lba, **fields):
    """One point read; ``fields`` are ``dispatch`` keywords."""
    return queue.dispatch(OP_READ, lba, **fields)


def wait_us(measured):
    return measured[3] - measured[2]


def service_us(measured):
    return measured[4] - measured[3]


def latency_us(measured):
    return measured[4] - measured[2]


class TestDispatch:
    def test_closed_loop_has_no_wait(self, device):
        queue = DeviceQueue(device)
        measured = read(queue, 0)
        assert measured[1] is None
        assert measured[0] == [device.read(0)]
        assert wait_us(measured) == 0.0
        assert service_us(measured) > 0.0
        assert latency_us(measured) == service_us(measured)

    def test_submit_then_poll(self, device):
        # A dispatch given a handle stays in the window until drained.
        queue = DeviceQueue(device)
        for lba in range(4):
            read(queue, lba, handle=lba)
        assert queue.inflight == 4
        rows = queue.drain()
        assert [row[0] for row in rows] == [0, 1, 2, 3]
        assert all(row[2] is None for row in rows)
        assert [row[1] for row in rows] == [[device.read(lba)]
                                            for lba in range(4)]
        assert queue.stats.submitted == 4
        assert queue.drain() == []

    def test_execute_consumes_its_completion(self, device):
        # Without a handle the dispatch is consumed synchronously.
        queue = DeviceQueue(device)
        read(queue, 0)
        assert queue.inflight == 0
        assert queue.drain() == []

    def test_open_loop_same_arrival_queues_on_one_channel(self, device):
        # tiny_geometry has one channel: two simultaneous arrivals
        # serialise, so the second waits the first's service time.
        queue = DeviceQueue(device)
        first = read(queue, 0, at_us=0.0)
        second = read(queue, 1, at_us=0.0)
        assert wait_us(first) == 0.0
        assert wait_us(second) == pytest.approx(service_us(first))
        assert latency_us(second) == pytest.approx(
            wait_us(second) + service_us(second))

    def test_open_loop_spaced_arrivals_do_not_queue(self, device):
        queue = DeviceQueue(device)
        first = read(queue, 0, at_us=0.0)
        second = read(queue, 1, at_us=first[4] + 1.0)
        assert wait_us(second) == 0.0

    def test_work_equals_service_on_one_channel(self, device):
        queue = DeviceQueue(device)
        measured = read(queue, 0)
        assert measured[5] == pytest.approx(service_us(measured))

    def test_backpressure_clamps_arrival(self, device):
        queue = DeviceQueue(device, depth=1)
        first = read(queue, 0, at_us=0.0)
        # The window is empty again (first was consumed), so refill it.
        read(queue, 1, at_us=0.0, handle="held")
        blocked = read(queue, 2, at_us=0.0)
        # Arrival was clamped to the oldest in-flight completion's end.
        assert blocked[2] >= first[4]
        assert queue.stats.dispatched == 3
        assert [row[0] for row in queue.drain()] == ["held"]

    def test_depth_validation(self, device):
        with pytest.raises(ConfigError):
            DeviceQueue(device, depth=0)

    def test_stats_accumulate(self, device):
        queue = DeviceQueue(device)
        latencies = [latency_us(read(queue, lba)) for lba in range(3)]
        stats = queue.stats
        assert stats.submitted == stats.dispatched == 3
        assert stats.mean_latency_us == pytest.approx(sum(latencies) / 3)
        assert stats.mean_latency_us == pytest.approx(
            stats.mean_wait_us + stats.mean_service_us)


class TestOneCallPerRequest:
    """A request is one device call, whatever its length."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count calls into the device's public write/trim methods."""
        from repro.salamander.device import SalamanderSSD
        from repro.ssd.ftl import PageMappedFTL
        seen = []
        for cls in (PageMappedFTL, SalamanderSSD):
            for name in ("write", "write_range", "trim", "trim_range"):
                def counted(self, *args, _real=getattr(cls, name),
                            _name=f"{cls.__name__}.{name}", **kwargs):
                    seen.append(_name)
                    return _real(self, *args, **kwargs)
                monkeypatch.setattr(cls, name, counted)
        return seen

    def test_flat_write_and_trim_range(self, make_chip, calls):
        from repro.ssd.ftl import FTLConfig, PageMappedFTL
        ftl = PageMappedFTL.for_chip(make_chip(), FTLConfig(
            overprovision=0.25, buffer_opages=8, host_streams=2))
        queue = DeviceQueue(ftl)
        queue.dispatch(OP_WRITE, 4, 6, [b"x"] * 6, stream=1)
        assert calls == ["PageMappedFTL.write_range"]
        assert [ftl._buffer_stream[lba] for lba in range(4, 10)] == [1] * 6
        queue.dispatch(OP_TRIM_RANGE, 4, 6)
        assert calls[1:] == ["PageMappedFTL.trim_range"]
        assert ftl.stats.trims == 6 and len(ftl.buffer) == 0

    def test_minidisk_write_and_trim_range(self, make_salamander, calls):
        device = make_salamander()
        queue = DeviceQueue(device)
        # The lifetime hint stops at the queue for minidisk requests.
        queue.dispatch(OP_WRITE, 2, 16, [b"y"] * 16, mdisk_id=1, stream=3)
        assert calls == ["SalamanderSSD.write_range",
                         "PageMappedFTL.write_range"]
        assert device.stats.host_writes == 16
        del calls[:]
        queue.dispatch(OP_TRIM_RANGE, 2, 16, mdisk_id=1)
        assert calls == ["SalamanderSSD.trim_range",
                         "PageMappedFTL.trim_range"]
        assert device.stats.trims == 16
        assert device.read_range(1, 2, 16) == [bytes(4096)] * 16
        error = queue.dispatch(OP_TRIM_RANGE, 30, 4, mdisk_id=1)[1]
        assert isinstance(error, ConfigError)


class TestErrors:
    def test_execute_reraises_device_error(self, device):
        # The device's own error comes back in the tuple, counted.
        queue = DeviceQueue(device)
        with pytest.raises(InvalidLBAError) as direct:
            device.read(10 ** 9)
        error = read(queue, 10 ** 9)[1]
        assert type(error) is InvalidLBAError
        assert str(error) == str(direct.value)
        assert queue.stats.errors == 1
        assert queue.inflight == 0

    def test_submit_raises_synchronously(self, device):
        # A held dispatch hands its error back at once, and the errored
        # row is still in the window for drain().
        queue = DeviceQueue(device)
        measured = read(queue, 10 ** 9, handle="bad")
        assert isinstance(measured[1], InvalidLBAError)
        (row,) = queue.drain()
        assert row[0] == "bad"
        assert row[1:] == measured

    def test_inflight_gauge_tracks_error_reraise_paths(self, device):
        # The repro_io_inflight gauge must equal len(_inflight) when a
        # dispatch errors: a held one leaves the errored row in flight
        # (drain sees it), a synchronous one leaves nothing — the gauge
        # follows both.
        registry = MetricsRegistry()
        with context.scoped(metrics=registry):
            queue = DeviceQueue(device)

        def gauge():
            doc = registry.to_dict()
            families = {m["name"]: m for m in doc["metrics"]}
            (sample,) = families["repro_io_inflight"]["samples"]
            return sample["value"]

        assert read(queue, 10 ** 9, handle="bad")[1] is not None
        assert queue.inflight == 1
        assert gauge() == 1.0
        queue.drain()
        assert queue.inflight == 0
        assert gauge() == 0.0
        assert read(queue, 10 ** 9)[1] is not None
        assert queue.inflight == 0
        assert gauge() == 0.0


class TestColumnDispatch:
    """``dispatch`` has two shapes over one serve+meter core: consumed
    synchronously (``handle=None``) or held in the window (a handle,
    handed back by ``drain``). These pin that the shapes measure alike
    and that request tracing changes nothing it measures."""

    OPS = [("write", 3, None), ("read", 3, 40.0), ("read_range", 0, 55.0),
           ("trim", 5, None), ("read", 10 ** 9, 90.0), ("read", 7, 91.0),
           ("write", 9, 400.0), ("read", 9, None)]

    @staticmethod
    def _fields(op, lba):
        count = 4 if op == "read_range" else 1
        payloads = [bytes([lba & 0xFF]) * 8] if op == "write" else None
        return count, payloads

    _state = staticmethod(queue_state)

    def _run(self, queue):
        """Alternate the two shapes; returns what each dispatch gave."""
        measured = []
        for index, (op, lba, at_us) in enumerate(self.OPS):
            count, payloads = self._fields(op, lba)
            measured.append(queue.dispatch(
                OP_CODES[op], lba, count, payloads, None, 0, 60.0,
                at_us, handle=index if index % 2 == 1 else None))
        return measured

    def test_dispatch_matches_execute_and_submit(self, make_baseline):
        def build():
            ssd = make_baseline(seed=3, variation_sigma=0.0,
                                inject_errors=False)
            for lba in range(16):
                ssd.write(lba, bytes([lba]) * 8)
            ssd.flush()
            return DeviceQueue(ssd, depth=2)

        first, second = build(), build()
        by_first, by_second = self._run(first), self._run(second)
        assert [(m[0], type(m[1])) + m[2:] for m in by_first] == [
            (m[0], type(m[1])) + m[2:] for m in by_second]
        assert self._state(first) == self._state(second)
        assert isinstance(by_first[4][1], InvalidLBAError)
        drained = first.drain()
        # A held dispatch's row is exactly what the dispatch returned.
        assert [row[0] for row in drained] == [1, 3, 5, 7]
        assert [row[1:] for row in drained] == by_first[1::2]
        assert first.inflight == 0

    def test_dispatch_is_sampled_and_traced_like_execute(self, device):
        tracer = ReqTracer(seed=5, every=2)
        with context.scoped(reqtrace=tracer):
            queue = DeviceQueue(device)
            measured = [read(queue, lba, deadline_us=1.0, at_us=10.0 * lba)
                        for lba in range(8)]
        assert tracer.sampled == 4
        records = list(tracer.records)
        assert len({record["tag"] % 2 for record in records}) == 1
        for record in records:
            # The record is the dispatch's fields and measured tuple.
            tag = record["tag"]
            _result, error, submit, start, end, work = measured[tag]
            assert list(record)[:14] == [
                "kind", "name", "time", "end_time", "op", "lba", "count",
                "stream", "mdisk", "device_kind", "tag", "status",
                "merged", "deadline_missed"]
            assert (record["name"], record["op"], record["lba"],
                    record["count"], record["stream"], record["mdisk"],
                    record["status"], record["merged"]) == (
                "io.read", "read", tag, 1, 0, None, "ok", 1)
            assert (record["time"], record["end_time"]) == (submit, end)
            assert (record["submit_us"], record["start_us"],
                    record["end_us"], record["work_us"]) == (
                submit, start, end, work)
            assert record["wait_us"] == start - submit
            assert record["service_us"] == end - start
            assert record["total_us"] == end - submit
            assert record["deadline_missed"] is (end > 1.0)


class TestAddressing:
    """A request addressed for the wrong kind of device is refused
    before dispatch, as a ``ReproError`` the cluster's handlers catch —
    not a ``TypeError`` from the device call's argument count."""

    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("minidisk_device, op, mdisk_id", [
        (True, "read", None),    # was: read() missing 'lba'
        (True, "write", None),   # was: object of type 'int' has no len()
        (False, "read", 0),      # was: read() takes 2 positional arguments
    ])
    def test_wrong_address_shape_is_refused_before_dispatch(
            self, minidisk_device, op, mdisk_id, traced, make_baseline,
            make_salamander):
        """Observability changes nothing a dispatch does: traced or not,
        held or not, the request is a ``ConfigError`` before the device
        is called — no stats, no chip RNG draw, no window row."""
        make = make_salamander if minidisk_device else make_baseline
        tracer = ReqTracer(seed=3, every=1) if traced else None
        with context.scoped(reqtrace=tracer):
            queue = DeviceQueue(make(seed=3))
        rng_state = queue.device.chip.rng.bit_generator.state
        payloads = [b"x" * 8] if op == "write" else None
        for handle in (None, "held"):
            with pytest.raises(ConfigError, match="addressed by"):
                queue.dispatch(OP_CODES[op], 0, 1, payloads, mdisk_id,
                               handle=handle)
        stats = queue.stats
        assert stats.submitted == stats.dispatched == stats.errors == 0
        assert queue.device.chip.rng.bit_generator.state == rng_state
        assert queue.drain() == []
        if traced:
            assert tracer.sampled == 0 and tracer.active is None

    def test_negative_mdisk_id_rejected(self, make_salamander):
        # The device's own minidisk range check answers, as an error
        # handed back and counted.
        device = make_salamander(seed=3)
        queue = DeviceQueue(device)
        with pytest.raises(ConfigError, match="mDisk -3") as direct:
            device.minidisk(-3)
        error = queue.dispatch(OP_READ, 0, mdisk_id=-3)[1]
        assert type(error) is ConfigError
        assert str(error) == str(direct.value)
        assert queue.stats.errors == 1

    def test_salamander_has_no_flat_read_past_its_gates(
            self, make_salamander):
        """Every read a Salamander device exposes takes ``mdisk_id`` and
        goes through ``_active_mdisk``; the flat ``read_batch`` it used
        to inherit served two flat reads in a row from whatever
        minidisks held those flat LBAs (docs/PERFORMANCE.md, "The
        logs")."""
        from repro.salamander.device import SalamanderSSD

        assert not hasattr(SalamanderSSD, "read_batch")
        queue = DeviceQueue(make_salamander(seed=3))
        for lba in (0, 1):  # back to back: each one refused
            with pytest.raises(ConfigError, match="addressed by"):
                read(queue, lba)
        assert queue.stats.dispatched == 0

    def test_flush_carries_no_address(self, make_salamander):
        queue = DeviceQueue(make_salamander(seed=3))
        assert queue.dispatch(OP_FLUSH)[1] is None


class TestDeadlines:
    def test_miss_counted_and_ratio_published(self, device):
        registry = MetricsRegistry()
        with context.scoped(metrics=registry):
            queue = DeviceQueue(device)
        # Generous deadline met, then an already-expired one missed.
        read(queue, 0, at_us=0.0, deadline_us=1e9)
        assert queue.stats.deadline_misses == 0
        read(queue, 1, at_us=100.0, deadline_us=0.0)
        assert queue.stats.deadline_misses == 1
        doc = registry.to_dict()
        families = {m["name"]: m for m in doc["metrics"]}
        sample = families["repro_io_deadline_miss_ratio"]["samples"][0]
        assert sample["value"] == pytest.approx(0.5)


class TestTraceHandoff:
    def test_sampled_request_produces_record(self, device):
        tracer = ReqTracer(seed=1, every=1)
        with context.scoped(reqtrace=tracer):
            queue = DeviceQueue(device)
            read(queue, 0)
            read(queue, 1, at_us=0.0)
        assert tracer.sampled == 2
        assert tracer.active is None
        records = list(tracer.records)
        assert [record["tag"] for record in records] == [0, 1]
        for record in records:
            assert record["device_kind"] == queue.device_kind
            assert sum(record["segments"].values()) == pytest.approx(
                record["total_us"], abs=1e-9)


class TestClock:
    def test_clock_monotone(self, device):
        queue = DeviceQueue(device)
        read(queue, 0, at_us=100.0)
        read(queue, 1, at_us=50.0)  # late-arriving stamp
        assert queue.clock_us == 100.0

    def test_makespan_covers_all_service(self, device):
        queue = DeviceQueue(device)
        total = 0.0
        for lba in range(4):
            total += service_us(read(queue, lba, at_us=0.0))
        assert queue.makespan_us() == pytest.approx(total)

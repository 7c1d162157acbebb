"""DeviceQueue mechanics: clocks, backpressure, errors.

Timing assertions run with ``variation_sigma=0`` and error injection
off, so every flash read costs the same deterministic service time.
"""

import pytest

from repro import context
from repro.errors import ConfigError, InvalidLBAError
from repro.io import OP_CODES, DeviceQueue, IORequest
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


def read_request(lba):
    return IORequest(op="read", lba=lba)


class TestDispatch:
    def test_closed_loop_has_no_wait(self, device):
        queue = DeviceQueue(device)
        completion = queue.execute(read_request(0))
        assert completion.ok
        assert completion.result == [device.read(0)]
        assert completion.wait_us == 0.0
        assert completion.service_us > 0.0
        assert completion.latency_us == completion.service_us

    def test_submit_then_poll(self, device):
        queue = DeviceQueue(device)
        for lba in range(4):
            queue.submit(read_request(lba))
        completions = queue.poll()
        assert [c.request.lba for c in completions] == [0, 1, 2, 3]
        assert [c.request.tag for c in completions] == [0, 1, 2, 3]
        assert all(c.ok for c in completions)
        assert queue.poll() == []

    def test_execute_consumes_its_completion(self, device):
        queue = DeviceQueue(device)
        queue.execute(read_request(0))
        assert queue.poll() == []

    def test_open_loop_same_arrival_queues_on_one_channel(self, device):
        # tiny_geometry has one channel: two simultaneous arrivals
        # serialise, so the second waits the first's service time.
        queue = DeviceQueue(device)
        first = queue.execute(read_request(0), at_us=0.0)
        second = queue.execute(read_request(1), at_us=0.0)
        assert first.wait_us == 0.0
        assert second.wait_us == pytest.approx(first.service_us)
        assert second.latency_us == pytest.approx(
            second.wait_us + second.service_us)

    def test_open_loop_spaced_arrivals_do_not_queue(self, device):
        queue = DeviceQueue(device)
        first = queue.execute(read_request(0), at_us=0.0)
        second = queue.execute(
            read_request(1), at_us=first.end_us + 1.0)
        assert second.wait_us == 0.0

    def test_work_equals_service_on_one_channel(self, device):
        queue = DeviceQueue(device)
        completion = queue.execute(read_request(0))
        assert completion.work_us == pytest.approx(completion.service_us)

    def test_backpressure_clamps_arrival(self, device):
        queue = DeviceQueue(device, depth=1)
        first = queue.execute(read_request(0), at_us=0.0)
        # The window is empty again (execute consumed it), so refill it.
        queue.submit(read_request(1), at_us=0.0)
        blocked = queue.execute(read_request(2), at_us=0.0)
        # Arrival was clamped to the oldest in-flight completion's end.
        assert blocked.submit_us >= first.end_us
        assert queue.stats.dispatched == 3

    def test_depth_validation(self, device):
        with pytest.raises(ConfigError):
            DeviceQueue(device, depth=0)

    def test_stats_accumulate(self, device):
        queue = DeviceQueue(device, keep_latencies=True)
        for lba in range(3):
            queue.execute(read_request(lba))
        stats = queue.stats
        assert stats.submitted == stats.dispatched == 3
        assert len(stats.latencies_us) == 3
        assert stats.mean_latency_us == pytest.approx(
            sum(stats.latencies_us) / 3)
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
        queue.execute(IORequest(op="write", lba=4, stream=1,
                                payloads=[b"x"] * 6))
        assert calls == ["PageMappedFTL.write_range"]
        assert [ftl._buffer_stream[lba] for lba in range(4, 10)] == [1] * 6
        queue.execute(IORequest(op="trim_range", lba=4, count=6))
        assert calls[1:] == ["PageMappedFTL.trim_range"]
        assert ftl.stats.trims == 6 and len(ftl.buffer) == 0

    def test_minidisk_write_and_trim_range(self, make_salamander, calls):
        device = make_salamander()
        queue = DeviceQueue(device)
        # The lifetime hint stops at the queue for minidisk requests.
        queue.execute(IORequest(op="write", lba=2, mdisk_id=1, stream=3,
                                payloads=[b"y"] * 16))
        assert calls == ["SalamanderSSD.write_range",
                         "PageMappedFTL.write_range"]
        assert device.stats.host_writes == 16
        del calls[:]
        queue.execute(IORequest(op="trim_range", lba=2, count=16,
                                mdisk_id=1))
        assert calls == ["SalamanderSSD.trim_range",
                         "PageMappedFTL.trim_range"]
        assert device.stats.trims == 16
        assert device.read_range(1, 2, 16) == [bytes(4096)] * 16
        with pytest.raises(ConfigError):
            queue.execute(IORequest(op="trim_range", lba=30, count=4,
                                    mdisk_id=1))


class TestErrors:
    def test_execute_reraises_device_error(self, device):
        queue = DeviceQueue(device)
        with pytest.raises(InvalidLBAError):
            queue.execute(read_request(10 ** 9))
        assert queue.stats.errors == 1

    def test_submit_raises_synchronously(self, device):
        queue = DeviceQueue(device)
        with pytest.raises(InvalidLBAError):
            queue.submit(read_request(10 ** 9))
        # The errored completion is still visible to poll().
        completions = queue.poll()
        assert len(completions) == 1
        assert not completions[0].ok
        assert isinstance(completions[0].error, InvalidLBAError)

    def test_inflight_gauge_tracks_error_reraise_paths(self, device):
        # The repro_io_inflight gauge must equal len(_inflight) even
        # when submit/execute re-raise a device error: submit leaves
        # the errored completion in flight (poll sees it), execute
        # consumes it — the gauge follows both.
        registry = MetricsRegistry()
        with context.scoped(metrics=registry):
            queue = DeviceQueue(device)

        def gauge():
            doc = registry.to_dict()
            families = {m["name"]: m for m in doc["metrics"]}
            (sample,) = families["repro_io_inflight"]["samples"]
            return sample["value"]

        with pytest.raises(InvalidLBAError):
            queue.submit(read_request(10 ** 9))
        assert queue.inflight == 1
        assert gauge() == 1.0
        queue.poll()
        assert queue.inflight == 0
        assert gauge() == 0.0
        with pytest.raises(InvalidLBAError):
            queue.execute(read_request(10 ** 9))
        assert queue.inflight == 0
        assert gauge() == 0.0


class TestColumnDispatch:
    """``dispatch`` runs the same serve+meter core as ``execute`` /
    ``submit``; these pin that nothing differs."""

    OPS = [("write", 3, None), ("read", 3, 40.0), ("read_range", 0, 55.0),
           ("trim", 5, None), ("read", 10 ** 9, 90.0), ("read", 7, 91.0),
           ("write", 9, 400.0), ("read", 9, None)]

    @staticmethod
    def _fields(op, lba):
        count = 4 if op == "read_range" else 1
        payloads = [bytes([lba & 0xFF]) * 8] if op == "write" else None
        return count, payloads

    _state = staticmethod(queue_state)

    def test_dispatch_matches_execute_and_submit(self, make_baseline):
        def build():
            ssd = make_baseline(seed=3, variation_sigma=0.0,
                                inject_errors=False)
            for lba in range(16):
                ssd.write(lba, bytes([lba]) * 8)
            ssd.flush()
            return DeviceQueue(ssd, depth=2, keep_latencies=True)

        by_request, by_columns = build(), build()
        rows = []
        for index, (op, lba, at_us) in enumerate(self.OPS):
            count, payloads = self._fields(op, lba)
            hold = index % 2 == 1  # alternate execute / submit shapes
            request = IORequest(op=op, lba=lba, count=count,
                                payloads=payloads, deadline_us=60.0)
            try:
                if hold:
                    by_request.submit(request, at_us=at_us)
                else:
                    rows.append(by_request.execute(request, at_us=at_us))
            except InvalidLBAError:
                pass
            measured = by_columns.dispatch(
                OP_CODES[op], lba, count, payloads, None, 0, 60.0, at_us,
                handle=index if hold else None)
            if not hold and measured[1] is None:
                done = rows[-1]
                assert measured == (done.result, None, done.submit_us,
                                    done.start_us, done.end_us,
                                    done.work_us)
            assert self._state(by_request) == self._state(by_columns)
        polled = by_request.poll()
        drained = by_columns.drain()
        assert [row[0] for row in drained] == [1, 3, 5, 7]
        assert [(c.result, type(c.error), c.submit_us, c.start_us,
                 c.end_us, c.work_us) for c in polled] == [
            (row[1], type(row[2])) + row[3:] for row in drained]
        assert by_columns.inflight == 0

    def test_dispatch_is_sampled_and_traced_like_execute(self, device):
        def records(columns: bool):
            tracer = ReqTracer(seed=5, every=2)
            with context.scoped(reqtrace=tracer):
                queue = DeviceQueue(device)
                for lba in range(8):
                    if columns:
                        queue.dispatch(OP_CODES["read"], lba,
                                       deadline_us=1.0, at_us=10.0 * lba)
                    else:
                        queue.execute(IORequest(op="read", lba=lba,
                                                deadline_us=1.0),
                                      at_us=10.0 * lba)
            assert tracer.sampled == 4
            return list(tracer.records)

        by_request = records(columns=False)
        # Reads leave a deterministic device as they found it, so the
        # second pass sees the same service times.
        assert records(columns=True) == by_request


class TestAddressing:
    """A request addressed for the wrong kind of device is refused
    before dispatch, as a ``ReproError`` the cluster's handlers catch —
    not a ``TypeError`` from the device call's argument count."""

    @pytest.mark.parametrize("minidisk_device, op, mdisk_id", [
        (True, "read", None),    # was: read() missing 'lba'
        (True, "write", None),   # was: object of type 'int' has no len()
        (False, "read", 0),      # was: read() takes 2 positional arguments
    ])
    def test_wrong_address_shape_is_refused_before_dispatch(
            self, minidisk_device, op, mdisk_id, make_baseline,
            make_salamander):
        make = make_salamander if minidisk_device else make_baseline
        queue = DeviceQueue(make(seed=3))

        def request():
            return IORequest(
                op=op, lba=0, mdisk_id=mdisk_id,
                payloads=[b"x" * 8] if op == "write" else None)

        with pytest.raises(ConfigError, match="addressed by"):
            queue.execute(request())
        with pytest.raises(ConfigError, match="addressed by"):
            queue.submit(request())
        assert queue.stats.submitted == queue.stats.dispatched == 0
        assert queue.stats.errors == 0
        assert queue.poll() == []

    def test_negative_mdisk_id_rejected(self):
        with pytest.raises(ConfigError, match="mdisk_id"):
            IORequest(op="read", lba=0, mdisk_id=-3)

    def test_salamander_has_no_flat_read_past_its_gates(
            self, make_salamander):
        """Every read a Salamander device exposes takes ``mdisk_id`` and
        goes through ``_active_mdisk``; the flat ``read_batch`` it used
        to inherit served two flat reads in a row from whatever
        minidisks held those flat LBAs (docs/PERFORMANCE.md,
        "Retired")."""
        from repro.salamander.device import SalamanderSSD

        assert not hasattr(SalamanderSSD, "read_batch")
        queue = DeviceQueue(make_salamander(seed=3))
        for lba in (0, 1):  # back to back: each one refused
            with pytest.raises(ConfigError, match="addressed by"):
                queue.execute(IORequest(op="read", lba=lba))
        assert queue.stats.dispatched == 0

    def test_flush_carries_no_address(self, make_salamander):
        queue = DeviceQueue(make_salamander(seed=3))
        assert queue.execute(IORequest(op="flush")).ok


class TestDeadlines:
    def test_miss_counted_and_ratio_published(self, device):
        registry = MetricsRegistry()
        with context.scoped(metrics=registry):
            queue = DeviceQueue(device)
        # Generous deadline met, then an already-expired one missed.
        ok = queue.execute(read_request(0), at_us=0.0)
        assert not ok.deadline_missed
        late = IORequest(op="read", lba=1, deadline_us=0.0)
        missed = queue.execute(late, at_us=100.0)
        assert missed.deadline_missed
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
            queue.execute(read_request(0))
            queue.execute(read_request(1), at_us=0.0)
        assert tracer.sampled == 2
        records = list(tracer.records)
        assert len(records) == 2
        for record in records:
            assert record["device_kind"] == queue.device_kind
            assert sum(record["segments"].values()) == pytest.approx(
                record["total_us"], abs=1e-9)


class TestClock:
    def test_clock_monotone(self, device):
        queue = DeviceQueue(device)
        queue.execute(read_request(0), at_us=100.0)
        queue.execute(read_request(1), at_us=50.0)  # late-arriving stamp
        assert queue.clock_us == 100.0

    def test_makespan_covers_all_service(self, device):
        queue = DeviceQueue(device)
        total = 0.0
        for lba in range(4):
            total += queue.execute(read_request(lba), at_us=0.0).service_us
        assert queue.makespan_us() == pytest.approx(total)

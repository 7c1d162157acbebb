"""Per-device NCQ-style submission queue with measured service times.

One :class:`DeviceQueue` fronts one device (all of a Salamander SSD's
minidisk volumes share it — the NCQ is a device resource). The queue
does two jobs:

1. **Dispatch.** Device method calls happen *inside* ``dispatch``, in
   submission order, through exactly the same methods direct callers
   would use — so the data path, RNG draw order and ``_audit_fastpath``
   state are bit-identical to direct device calls (the differential
   conformance suite asserts this against
   ``tests/difs/direct_io_oracle.py``). A device error is handed back
   in the result tuple for the caller to raise or count; a request
   addressed for the other kind of device is refused with a
   ``ConfigError`` before the device is called.

2. **Time accounting.** The queue keeps a device-local virtual clock
   in microseconds and models the device as ``c`` parallel channel
   servers (``c`` = the chip's channel count). Each request is placed
   on the earliest-free server; its *service time* is measured from
   the chip's ``channel_busy_us`` bookkeeping (the per-channel
   makespan the request added — multi-channel parallelism inside one
   request shortens its service, it does not contend across requests),
   and its *wait* is however long the server was still busy with
   earlier requests. Closed-loop callers (the cluster) submit at the
   current clock, so waits are zero and latency equals measured
   service; open-loop harnesses pass explicit ``at_us`` arrival times
   and queueing delay emerges — that is what the M/D/c claim check
   validates against :func:`repro.models.queueing.mdc_latency_us`.

A request is its fields, never an object, and
:meth:`DeviceQueue.dispatch` serves it in one frame: it calls the device
and measures what the call cost the chip, then places that service on
the virtual clock and does all the accounting (stats, metrics,
deadlines, the makespan). Only requests that *stay* in the in-flight
window leave anything behind: one row each, the handle and the measured
fields but not the result (the caller already has it), handed back by
:meth:`DeviceQueue.drain`. Synchronous dispatches allocate nothing but
what they return. With a request tracer scoped, a sampled dispatch runs
the same code with its trace context active around the device call.

``depth`` bounds the in-flight window like a real NCQ: submitting into
a full queue first retires the oldest in-flight completion and clamps
the newcomer's arrival to that completion time (host-side
backpressure).
"""

from __future__ import annotations

from collections import deque
from operator import sub

from repro import context
from repro.errors import ConfigError
from repro.io.protocols import device_kind_of
from repro.io.queue_stats import QueueStats
from repro.io.request import (
    OP_FLUSH,
    OP_NAMES,
    OP_READ,
    OP_READ_RANGE,
    OP_TRIM,
    OP_TRIM_RANGE,
    OP_WRITE,
)
from repro.obs.instruments import export_queue_stats, io_instruments

#: Where a window row — ``(handle, error, submit_us, start_us, end_us,
#: work_us)`` — keeps its completion time.
_END = 4


class DeviceQueue:
    """Submission queue and service-time meter for one block device.

    Args:
        device: any :class:`repro.io.protocols.BlockDevice`.
        depth: in-flight window (>= 1).
        device_kind: metric label override; defaults to the device's
            ``device_kind`` attribute or lower-cased class name.
    """

    def __init__(self, device, depth: int = 8,
                 device_kind: str | None = None) -> None:
        if depth < 1:
            raise ConfigError(f"depth must be >= 1, got {depth!r}")
        self.device = device
        self.depth = depth
        self.device_kind = device_kind or device_kind_of(device)
        #: Whether the device's host interface is ``(mdisk_id, lba)``
        #: (Salamander) rather than a flat LBA.
        self._by_minidisk = hasattr(device, "active_minidisks")
        chip = getattr(device, "chip", None)
        self._chip = chip
        geometry = getattr(chip, "geometry", None)
        self.channels = int(getattr(geometry, "channels", 1) or 1)
        #: Device-local virtual clock (us). Monotone; advanced by
        #: arrivals, never by service (servers run ahead of the clock).
        self.clock_us = 0.0
        self._channel_free = [0.0] * self.channels
        #: When the busiest channel server goes idle (virtual time):
        #: the largest completion so far, kept by :meth:`dispatch`.
        self.makespan_us = 0.0
        #: The in-flight window and the rows backpressure retired from
        #: it, both oldest first (see ``_END`` for the row).
        self._inflight: deque[tuple] = deque()
        self._done: deque[tuple] = deque()
        self.stats = QueueStats()
        # The run context binds at construction: the latency histograms
        # are None with metrics off, one identity test on the hot path;
        # the counters and gauges read ``stats`` and the window at
        # collect time. Request tracing is None unless scoped.
        ctx = context.current()
        self._instr = io_instruments()
        export_queue_stats(self.device_kind, self.stats, self._inflight)
        #: Per op code: (latency.observe, wait.observe), bound on the
        #: op's first dispatch.
        self._op_children: list[tuple | None] = [None] * len(OP_NAMES)
        self._reqtrace = ctx.reqtrace
        self._rt_sampler = (self._reqtrace.sampler_for(self.device_kind)
                            if self._reqtrace is not None else None)

    # -- submission -----------------------------------------------------------

    def dispatch(self, code: int, lba: int = 0, count: int = 1,
                 payloads: list[bytes] | None = None,
                 mdisk_id: int | None = None, stream: int = 0,
                 deadline_us: float | None = None,
                 at_us: float | None = None, handle=None) -> tuple:
        """Serve one request, given as its fields (``code`` is an
        ``OP_*`` op code), and meter it on the device clock.

        Returns ``(result, error, submit_us, start_us, end_us,
        work_us)``; a device error is returned, never raised. With
        ``handle=None`` the request is consumed synchronously. Any
        other ``handle`` makes it occupy a window slot, and
        :meth:`drain` hands back a row of the handle and the measured
        fields, without the result.

        ``mdisk_id`` must be given on a minidisk device and omitted on
        a flat one (``flush`` carries no address): a request of the
        other shape would die on the device call's argument count, a
        ``TypeError`` no ``ReproError`` handler catches, so it is
        refused with a ``ConfigError`` before the device is called and
        nothing is counted. The device checks everything else — LBA
        ranges, empty payloads, minidisk ids — and its error comes back
        in the tuple.
        """
        if (mdisk_id is None) == self._by_minidisk and code != OP_FLUSH:
            shape = "(mdisk_id, lba)" if self._by_minidisk else "flat LBA"
            raise ConfigError(
                f"{OP_NAMES[code]} request with mdisk_id={mdisk_id!r} on "
                f"a {self.device_kind} device, which is addressed by "
                f"{shape}")
        stats = self.stats
        stats.submitted += 1
        chip = self._chip
        if chip is None:
            busy_before = 0.0
        else:
            busy_before = chip.stats.busy_us
            chan_before = list(chip.channel_busy_us)
        trace = None
        # The sample decision is a pure function of (tracer seed, device
        # kind, how many dispatches of that kind came before) —
        # independent of wall clock and process layout, which is what
        # keeps artifacts byte-identical across ``--jobs``.
        if self._rt_sampler is not None and self._rt_sampler.sample():
            trace = self._reqtrace.begin()
            trace.activate(busy_before)
            self._reqtrace.active = trace

        # Serve: call the device through exactly the methods a direct
        # caller would use, and measure what it cost the chip — ``work``
        # is the chip busy time consumed, ``service`` the largest
        # per-channel share of it.
        device = self.device
        result = error = None
        try:
            if code == OP_READ:
                result = ([device.read(lba)] if mdisk_id is None
                          else [device.read(mdisk_id, lba)])
            elif code == OP_WRITE:
                if mdisk_id is None:
                    device.write_range(lba, payloads, stream)
                else:
                    # The lifetime hint has never reached a minidisk
                    # write (all on lane 0); forwarding it moves data
                    # between open blocks — a re-baseline of the
                    # traffic goldens.
                    device.write_range(mdisk_id, lba, payloads)
            elif code == OP_READ_RANGE:
                result = (device.read_range(lba, count) if mdisk_id is None
                          else device.read_range(mdisk_id, lba, count))
            elif code == OP_TRIM:
                if mdisk_id is None:
                    device.trim(lba)
                else:
                    device.trim(mdisk_id, lba)
            elif code == OP_TRIM_RANGE:
                if mdisk_id is None:
                    device.trim_range(lba, count)
                else:
                    device.trim_range(mdisk_id, lba, count)
            elif code == OP_FLUSH:
                device.flush()
            else:  # pragma: no cover - request validation rejects these
                raise ConfigError(f"unhandled op code {code!r}")
        except Exception as exc:  # noqa: BLE001 - recorded per request
            error = exc
        if chip is None:
            service = work = 0.0
        else:
            work = chip.stats.busy_us - busy_before
            # The channel list is never empty (one server at least).
            service = max(map(sub, chip.channel_busy_us, chan_before))

        # Meter: the queue's whole timing model — arrival (with NCQ
        # backpressure), earliest-free channel server, clock advance,
        # ``QueueStats``, metrics and deadline accounting.
        clock = self.clock_us
        arrival = clock if at_us is None else max(at_us, 0.0)
        inflight = self._inflight
        if len(inflight) >= self.depth:
            # NCQ backpressure: a full window blocks the host until the
            # oldest in-flight completion frees a slot.
            while len(inflight) >= self.depth:
                oldest = inflight.popleft()
                arrival = max(arrival, oldest[_END])
                self._done.append(oldest)
        free = self._channel_free
        earliest = min(free)
        start = arrival if arrival >= earliest else earliest
        end = start + service
        free[free.index(earliest)] = end
        # A server's free time only ever rises to ``end``, so the
        # largest ``end`` so far is the busiest server's free time.
        if end > self.makespan_us:
            self.makespan_us = end
        # Closed-loop callers block on the completion, so the device
        # clock advances with it (hence their next arrival never finds
        # the server busy: waits are zero by construction). Open-loop
        # callers own time via ``at_us``; the clock only tracks the
        # latest arrival so a late stamp cannot run it backwards.
        advance = end if at_us is None else arrival
        if advance > clock:
            self.clock_us = advance
        stats.dispatched += 1
        latency = end - arrival
        wait = start - arrival
        stats.total_latency_us += latency
        stats.total_wait_us += wait
        stats.total_service_us += end - start
        stats.total_work_us += work
        if error is not None:
            stats.errors += 1
        if deadline_us is not None and end > deadline_us:
            stats.deadline_misses += 1
        if self._instr is not None:
            children = self._op_children[code] or self._bind_children(code)
            children[0](latency)
            children[1](wait)

        if trace is not None:
            self._reqtrace.finish(
                trace, (result, error, arrival, start, end, work),
                busy_before + work, op=OP_NAMES[code], lba=lba,
                count=len(payloads) if payloads else count,
                stream=stream, mdisk=mdisk_id, device_kind=self.device_kind,
                tag=stats.submitted - 1, deadline_us=deadline_us)
        if handle is not None:
            inflight.append((handle, error, arrival, start, end, work))
        return result, error, arrival, start, end, work

    def drain(self) -> list[tuple]:
        """Retire the whole window; returns its rows, oldest first.

        A row is ``(handle, error, submit_us, start_us, end_us,
        work_us)``: the ``handle`` given to :meth:`dispatch` and the
        measured fields it returned, without the result (the caller
        already has it).
        """
        rows = list(self._done)
        rows.extend(self._inflight)
        self._done.clear()
        self._inflight.clear()
        return rows

    # -- internals ------------------------------------------------------------

    def _bind_children(self, code: int) -> tuple:
        labels = {"op": OP_NAMES[code], "device_kind": self.device_kind}
        children = (self._instr.latency.labels(**labels).observe,
                    self._instr.wait.labels(**labels).observe)
        self._op_children[code] = children
        return children

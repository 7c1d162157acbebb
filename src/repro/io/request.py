"""IO requests and completions — the nouns of the host IO path.

An :class:`IORequest` names one device operation (op kind, LBA range,
payloads, optional minidisk, optional deadline); an
:class:`IOCompletion` is the answer, carrying the result plus the three
measured times the queueing model cares about:

* ``wait_us`` — time between arrival and dispatch (queueing delay);
* ``service_us`` — device time the request occupied its channel server
  (the chip's per-channel makespan delta while the request ran);
* ``latency_us`` — ``wait + service``: what the host observed.

``work_us`` additionally records the *total* chip busy time consumed
(summed over channels) — for multi-channel range reads it exceeds
``service_us`` by the parallelism the chip achieved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Operations that return data to the host.
READ_OPS = ("read", "read_range")
#: Operations that deliver data to the device.
WRITE_OPS = ("write",)

#: Op codes, in the order of :data:`OP_NAMES`: ``IORequest.op`` holds
#: the name, :meth:`repro.io.queue.DeviceQueue.dispatch` takes the code.
OP_READ = 0
OP_READ_RANGE = 1
OP_WRITE = 2
OP_TRIM = 3
OP_TRIM_RANGE = 4
OP_FLUSH = 5

OP_NAMES = ("read", "read_range", "write", "trim", "trim_range", "flush")
OP_CODES = {name: code for code, name in enumerate(OP_NAMES)}


@dataclass
class IORequest:
    """One host-issued block operation.

    Attributes:
        op: one of ``read`` (single LBA via the device's point read),
            ``read_range`` (scatter-gather via ``read_range`` — one
            sense per touched fPage), ``write`` (one ``write_range``
            call; payloads land in order), ``trim``, ``trim_range``,
            ``flush``.
            ``read`` and ``read_range`` with ``count == 1`` are *not*
            interchangeable: they reach different chip primitives, so
            the caller picks the one matching its legacy call.
        lba: first logical oPage address.
        count: LBAs covered (reads/trims; writes derive it from
            ``payloads``).
        payloads: one bytes object per LBA for ``write``.
        mdisk_id: Salamander minidisk address space; ``None`` for flat
            devices.
        deadline_us: optional host deadline; completions past it are
            flagged, never dropped (QoS experiments consume the flag).
        stream: multi-stream lifetime hint forwarded to flat-device
            writes (minidisk writes run on lane 0).
    """

    op: str
    lba: int = 0
    count: int = 1
    payloads: list[bytes] | None = None
    mdisk_id: int | None = None
    deadline_us: float | None = None
    stream: int = 0
    #: Queue-assigned submission tag (stable, monotone per queue).
    tag: int = -1
    #: Arrival time on the device clock, stamped at submit.
    submit_us: float = 0.0
    #: Sampled-request attribution context
    #: (:class:`repro.obs.reqtrace.ReqContext`); None for the unsampled
    #: majority. Attached by the queue's seed-derived sampler, carried
    #: through coalescing, consumed at completion.
    trace: object | None = None

    def __post_init__(self) -> None:
        if self.op not in OP_NAMES:
            raise ConfigError(
                f"op must be one of {OP_NAMES}, got {self.op!r}")
        if self.op == "write":
            if not self.payloads:
                raise ConfigError("write requests need payloads")
            self.count = len(self.payloads)
        elif self.payloads is not None:
            raise ConfigError(f"{self.op} requests carry no payloads")
        if self.op == "read" and self.count != 1:
            raise ConfigError(
                f"read is single-LBA (count=1); use read_range for "
                f"{self.count} LBAs")
        if self.op != "flush" and self.count <= 0:
            raise ConfigError(f"count must be positive, got {self.count!r}")
        if self.lba < 0:
            raise ConfigError(f"lba must be non-negative, got {self.lba!r}")
        if self.mdisk_id is not None and self.mdisk_id < 0:
            raise ConfigError(
                f"mdisk_id must be non-negative, got {self.mdisk_id!r}")

    @property
    def is_read(self) -> bool:
        return self.op in READ_OPS


@dataclass
class IOCompletion:
    """The measured outcome of one :class:`IORequest`.

    ``status`` is ``"ok"`` or ``"error"``; an errored completion holds
    the exception in ``error`` (the queue's synchronous ``execute``
    re-raises it, preserving direct-call semantics).
    """

    request: IORequest
    status: str = "ok"
    result: list[bytes] | None = None
    error: Exception | None = None
    submit_us: float = 0.0
    start_us: float = 0.0
    end_us: float = 0.0
    #: Total chip busy time consumed (summed across channels).
    work_us: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def wait_us(self) -> float:
        """Queueing delay: dispatch minus arrival."""
        return self.start_us - self.submit_us

    @property
    def service_us(self) -> float:
        """Channel-parallel elapsed device time."""
        return self.end_us - self.start_us

    @property
    def latency_us(self) -> float:
        """Host-observed latency: wait plus service."""
        return self.end_us - self.submit_us

    @property
    def deadline_missed(self) -> bool:
        deadline = self.request.deadline_us
        return deadline is not None and self.end_us > deadline

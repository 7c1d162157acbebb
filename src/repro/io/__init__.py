"""repro.io: the end-to-end host->device request pipeline.

Every block of data the diFS moves — client chunk writes and reads,
recovery re-replication, rebalance copies — travels through this layer
as an :class:`IORequest` submitted to a per-device :class:`DeviceQueue`
and answered with an :class:`IOCompletion` carrying *measured* wait and
service time, fed by the flash layer's ``busy_us``/``channel_busy_us``
accounting; the traffic engine hands the same queue its requests as
bare fields (:meth:`DeviceQueue.dispatch`, op codes in
:data:`OP_CODES`). Those are the only two ways in, and they share one
serve-and-meter core. One :class:`BlockDevice` protocol describes what
every device flavour (baseline, CVSS, Salamander) must expose.

The determinism contract (docs/IO_PIPELINE.md): with coalescing off
(the default) the queue performs *exactly* the same device method
calls, in the same order, as direct calls would — identical RNG draw
order, identical data path, identical ``_audit_fastpath`` state. The
queue adds time accounting, never behaviour; the direct calls live on
as the test oracle that says so (``tests/difs/direct_io_oracle.py``).
"""

from repro.io.protocols import BlockDevice, QueuedDevice, device_kind_of
from repro.io.queue import DeviceQueue
from repro.io.queue_stats import QueueStats
from repro.io.request import (
    OP_CODES,
    OP_NAMES,
    READ_OPS,
    WRITE_OPS,
    IOCompletion,
    IORequest,
)

__all__ = [
    "BlockDevice",
    "DeviceQueue",
    "IOCompletion",
    "IORequest",
    "OP_CODES",
    "OP_NAMES",
    "QueueStats",
    "QueuedDevice",
    "READ_OPS",
    "WRITE_OPS",
    "device_kind_of",
]

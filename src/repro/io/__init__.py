"""repro.io: the end-to-end host->device request pipeline.

Every block of data the diFS moves — client chunk writes and reads,
recovery re-replication — and every request the traffic engine issues
travels through this layer as one :meth:`DeviceQueue.dispatch` on a
per-device :class:`DeviceQueue`: the request given as bare fields (an
op code from :data:`OP_CODES`, the LBA range, payloads, the minidisk),
answered with a tuple carrying the result and the *measured* arrival,
start and end times, fed by the flash layer's
``busy_us``/``channel_busy_us`` accounting. That is the only way in.
One :class:`BlockDevice` protocol describes what every device flavour
(baseline, CVSS, Salamander) must expose.

The determinism contract (docs/IO_PIPELINE.md): the queue performs
*exactly* the same device method calls, in the same order, as direct
calls would — identical RNG draw order, identical data path, identical
``_audit_fastpath`` state. The queue adds time accounting, never
behaviour; the direct calls live on as the test oracle that says so
(``tests/difs/direct_io_oracle.py``).
"""

from repro.io.protocols import BlockDevice, device_kind_of
from repro.io.queue import DeviceQueue
from repro.io.queue_stats import QueueStats
from repro.io.request import OP_CODES, OP_NAMES

__all__ = [
    "BlockDevice",
    "DeviceQueue",
    "OP_CODES",
    "OP_NAMES",
    "QueueStats",
    "device_kind_of",
]

"""Op codes — the verbs of the host IO path.

A request is never an object: :meth:`repro.io.queue.DeviceQueue.dispatch`
takes its fields (an op code, the LBA range, payloads, the minidisk,
the lifetime stream, a deadline) and hands back what it measured. The
codes name one device call each:

* ``read`` — one LBA through the device's point read;
* ``read_range`` — scatter-gather through ``read_range`` (one sense per
  touched fPage). A ``read`` and a one-LBA ``read_range`` are *not*
  interchangeable: they reach different chip primitives;
* ``write`` — one ``write_range`` call; the payloads land in order;
* ``trim`` / ``trim_range`` — one LBA, or ``count`` of them;
* ``flush`` — drain the write buffer; it carries no address.

:data:`OP_NAMES` holds the names in code order (metric labels and
request-trace records name the op); :data:`OP_CODES` maps back.
"""

from __future__ import annotations

OP_READ = 0
OP_READ_RANGE = 1
OP_WRITE = 2
OP_TRIM = 3
OP_TRIM_RANGE = 4
OP_FLUSH = 5

OP_NAMES = ("read", "read_range", "write", "trim", "trim_range", "flush")
OP_CODES = {name: code for code, name in enumerate(OP_NAMES)}

"""The one ``BlockDevice`` protocol every device flavour satisfies.

Before this module the diFS reached devices through ad-hoc duck typing
(``getattr(device, "capacity_lbas", device.n_lbas)``,
``hasattr(device, "shrink_listener")``). The protocol writes the shape
down once: :class:`BaselineSSD`, :class:`CVSSDevice` and
:class:`SalamanderSSD` all conform (the conformance suite in
``tests/io/`` asserts it with ``isinstance``), and the cluster's volume
adapters depend only on this surface.

Addressing note: Salamander's host interface is ``(mdisk_id, lba)``
rather than a flat LBA, so the *data* methods are intentionally loose
(``runtime_checkable`` protocols check attribute presence, not
signatures). What the protocol pins precisely is the shared control
surface — capacity, liveness, health, and the queued submit/poll pair —
plus the requirement that read/write/trim/flush and their range forms
exist at all. Requests carry ``mdisk_id`` so the queue bridges both
address shapes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.io.queue import DeviceQueue
    from repro.io.request import IOCompletion, IORequest


def device_kind_of(device) -> str:
    """Stable metric label for a device's flavour.

    Devices advertise ``device_kind`` (``baseline``, ``cvss``,
    ``salamander``, ``ftl``); anything else falls back to its
    lower-cased class name.
    """
    kind = getattr(device, "device_kind", None)
    if kind is not None:
        return kind
    return type(device).__name__.lower()


@runtime_checkable
class BlockDevice(Protocol):
    """What the diFS (and any host) may assume about a device."""

    #: Metric label naming the flavour (``baseline``/``cvss``/...).
    device_kind: str
    #: Stable observability label for this device's metric series.
    obs_name: str

    @property
    def capacity_lbas(self) -> int:
        """Currently advertised logical size in oPages.

        Baseline devices report their fixed ``n_lbas``; CVSS shrinks
        this downward; Salamander reports the sum over active
        minidisks (``advertised_lbas``).
        """
        ...

    @property
    def capacity_bytes(self) -> int:
        """Advertised size in bytes."""
        ...

    @property
    def is_alive(self) -> bool:
        """Whether the device still serves IO."""
        ...

    def health(self) -> dict:
        """Uniform health snapshot (alive, capacity, wear counters)."""
        ...

    # -- data path (signatures vary by address shape; see module doc) --------

    def read(self, *args): ...

    def read_range(self, *args): ...

    def write(self, *args, **kwargs): ...

    def write_range(self, *args, **kwargs): ...

    def trim(self, *args): ...

    def trim_range(self, *args): ...

    def flush(self) -> None: ...

    # -- queued IO path ------------------------------------------------------

    @property
    def io_queue(self) -> "DeviceQueue":
        """The device's submission queue (created lazily)."""
        ...

    def submit(self, request: "IORequest",
               at_us: float | None = None) -> "IORequest":
        """Submit a request to the device's queue."""
        ...

    def poll(self) -> "list[IOCompletion]":
        """Drain finished completions from the device's queue."""
        ...


@runtime_checkable
class QueuedDevice(Protocol):
    """The minimal surface :class:`repro.io.queue.DeviceQueue` drives.

    Anything with a point read, a range write (a ``write`` request is
    one ``write_range`` call, however many payloads it carries) and a
    chip exposing ``stats.busy_us`` / ``channel_busy_us`` can sit
    behind a queue; the full :class:`BlockDevice` surface is what the
    *cluster* assumes.
    """

    def read(self, *args): ...

    def write_range(self, *args, **kwargs): ...

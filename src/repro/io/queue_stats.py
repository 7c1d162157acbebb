"""Plain counters for :class:`repro.io.queue.DeviceQueue`.

Split out of ``queue.py`` so harnesses and claim checks can import the
stats container without pulling the dispatch machinery. Import it
from here or from :mod:`repro.io`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class QueueStats:
    """Plain counters the ``repro_io_*`` metrics read at collect time.

    Kept on the queue itself so claim checks and benchmarks can read
    measured means without an observability registry enabled; a caller
    that wants every latency collects ``end_us - submit_us`` from the
    tuples :meth:`~repro.io.queue.DeviceQueue.dispatch` returns.
    """

    submitted: int = 0
    dispatched: int = 0
    errors: int = 0
    deadline_misses: int = 0
    total_latency_us: float = 0.0
    total_wait_us: float = 0.0
    total_service_us: float = 0.0
    total_work_us: float = 0.0

    @property
    def mean_latency_us(self) -> float:
        return (self.total_latency_us / self.dispatched
                if self.dispatched else 0.0)

    @property
    def mean_wait_us(self) -> float:
        return (self.total_wait_us / self.dispatched
                if self.dispatched else 0.0)

    @property
    def mean_service_us(self) -> float:
        return (self.total_service_us / self.dispatched
                if self.dispatched else 0.0)

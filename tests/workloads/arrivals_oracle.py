"""The scalar arrival processes, kept as the block draws' oracle.

``next_after`` exactly as it stood in ``repro.workloads.arrivals``
before the processes drew their exponentials in blocks: one
``rng.exponential`` call per gap and per dwell, in race order. The
oracle also counts what the race consumed (``draws``) and how often
the MMPP state flipped (``flips``), so a test can say how many block
boundaries and state changes a compared sequence crossed.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.arrivals import DEFAULT_DWELL_ARRIVALS, mmpp_rates


class ScalarPoisson:
    def __init__(self, rate_per_us: float, rng: np.random.Generator) -> None:
        self.rate_per_us = rate_per_us
        self._rng = rng
        self.draws = 0

    def next_after(self, t_us: float) -> float:
        self.draws += 1
        return t_us + float(self._rng.exponential(1 / self.rate_per_us))


class ScalarMMPP:
    def __init__(self, rate_per_us: float, rng: np.random.Generator,
                 burstiness: float, dwell_us: float | None = None) -> None:
        self.dwell_us = (dwell_us if dwell_us is not None
                         else DEFAULT_DWELL_ARRIVALS / rate_per_us)
        self._rates = mmpp_rates(rate_per_us, burstiness)
        self._rng = rng
        self._state = 1  # quiet
        self._state_until = float(rng.exponential(self.dwell_us))
        self.draws, self.flips = 1, 0

    def next_after(self, t_us: float) -> float:
        rng = self._rng
        while True:
            rate = self._rates[self._state]
            gap = float(rng.exponential(1.0 / rate))
            self.draws += 1
            if t_us + gap <= self._state_until:
                return t_us + gap
            t_us = self._state_until
            self._state = 1 - self._state
            self._state_until = t_us + float(rng.exponential(self.dwell_us))
            self.draws += 1
            self.flips += 1

"""Per-tenant arrival processes for the traffic engine.

The open-loop half of :mod:`repro.workloads.engine` needs arrival
*time* generators to pair with the address generators of
:mod:`repro.workloads.generators`: each tenant owns one process and
draws its next submission instant from it. Two processes cover the
paper's load axis:

* **Poisson** — memoryless arrivals at a fixed mean rate, the
  assumption under which the M/D/c overlay of
  :mod:`repro.models.queueing` is exact-in-the-limit. The claim rows
  tying measured p99 to the analytic overlay use this process.
* **MMPP** — a two-state Markov-modulated Poisson process: the tenant
  alternates between a *burst* state and a *quiet* state (exponential
  dwell times), arriving at a different rate in each. The time-average
  rate equals the configured mean rate, but inter-arrivals are
  over-dispersed (coefficient of variation > 1), which is what makes
  admission control earn its keep.

Both are pure functions of the RNG handed in — fork it with
:func:`repro.rng.fork_rng` per tenant and the schedule is a
deterministic function of ``(seed, tenant)``, independent of worker
count. Both draw their exponentials ``_BLOCK`` at a time, so each must
own its generator (see the class docstrings). Statistical conformance
(exponential KS for Poisson, CV and mean-rate bands for MMPP) is pinned
by ``tests/workloads/test_statistics.py``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

#: Recognised arrival-process kinds (CLI ``--arrival`` values).
ARRIVAL_KINDS = ("poisson", "mmpp")

#: Default burst/quiet rate asymmetry for MMPP (see :func:`mmpp_rates`).
DEFAULT_BURSTINESS = 4.0

#: Standard exponentials drawn per refill. numpy's ``exponential(scale)``
#: is ``scale * standard_exponential()``, and a block draw consumes the
#: bit stream as that many scalar draws would, so every arrival instant
#: is the float the scalar draws gave.
_BLOCK = 64

#: Default mean dwell per MMPP state, in units of the mean
#: inter-arrival time (a burst lasts ~10 arrivals at the mean rate).
DEFAULT_DWELL_ARRIVALS = 10.0


def mmpp_rates(rate_per_us: float,
               burstiness: float) -> tuple[float, float]:
    """Burst/quiet rates with time-average ``rate_per_us``.

    With equal expected dwell in both states the long-run rate is the
    plain average of the two state rates, so ``burst = 2b/(b+1) * rate``
    and ``quiet = burst / b`` average back to ``rate`` for any
    asymmetry ``b >= 1``.
    """
    burst = rate_per_us * 2.0 * burstiness / (burstiness + 1.0)
    return burst, burst / burstiness


def _refill(draws: list[float], rng: np.random.Generator,
            scale: float = 1.0) -> None:
    """Put the next ``_BLOCK`` draws of ``scale * standard_exponential``
    on ``draws``, in reverse, so ``draws.pop()`` takes them in order."""
    block = rng.standard_exponential(_BLOCK).tolist()
    block.reverse()
    draws.extend([scale * e for e in block])


class PoissonArrivals:
    """Memoryless arrivals at a constant mean rate.

    The gaps are drawn ``_BLOCK`` at a time as ``(1.0 / rate) * e`` over
    standard exponentials ``e``: the same floats, in the same order, as
    one ``rng.exponential(1.0 / rate)`` per arrival. Drawing ahead is
    unobservable because the generator is the process's own (the
    engine hands each tenant a private ``fork_rng(..., "arrivals")``
    child); a generator shared with another consumer would see its
    stream advanced by up to a block.
    """

    kind = "poisson"

    def __init__(self, rate_per_us: float, rng: np.random.Generator) -> None:
        if rate_per_us <= 0.0:
            raise ConfigError(
                f"rate_per_us must be positive, got {rate_per_us!r}")
        self.rate_per_us = rate_per_us
        self._rng = rng
        #: Undrawn gaps, next one last.
        self._gaps: list[float] = []

    def next_after(self, t_us: float) -> float:
        """The first arrival instant strictly after ``t_us``."""
        gaps = self._gaps
        if not gaps:
            _refill(gaps, self._rng, 1.0 / self.rate_per_us)
        return t_us + gaps.pop()


class MMPPArrivals:
    """Two-state Markov-modulated Poisson arrivals (bursty).

    State 0 is the burst state, state 1 the quiet state; dwell times
    are exponential with the same mean, so the stationary split is
    50/50 and the time-average rate is ``(burst + quiet) / 2`` — held
    equal to the configured mean rate by :func:`mmpp_rates`. The
    process starts in the quiet state so short windows are not biased
    hot.

    Arrival gaps and dwell times share one stream of standard
    exponentials ``e``, drawn ``_BLOCK`` at a time and taken in the
    order the race consumes them: a gap is ``(1.0 / rate) * e``, a
    dwell ``dwell_us * e`` — the floats one ``rng.exponential`` call
    per value gave. As for :class:`PoissonArrivals`, drawing ahead is
    unobservable only because the generator is the process's own.
    """

    kind = "mmpp"

    def __init__(self, rate_per_us: float, rng: np.random.Generator,
                 burstiness: float = DEFAULT_BURSTINESS,
                 dwell_us: float | None = None) -> None:
        if rate_per_us <= 0.0:
            raise ConfigError(
                f"rate_per_us must be positive, got {rate_per_us!r}")
        if burstiness < 1.0:
            raise ConfigError(
                f"burstiness must be >= 1, got {burstiness!r}")
        self.rate_per_us = rate_per_us
        self.burstiness = burstiness
        self.dwell_us = (dwell_us if dwell_us is not None
                         else DEFAULT_DWELL_ARRIVALS / rate_per_us)
        if self.dwell_us <= 0.0:
            raise ConfigError(
                f"dwell_us must be positive, got {self.dwell_us!r}")
        #: Mean arrival gap per state: ``1.0 / rate``.
        self._scales = tuple(1.0 / rate for rate in
                             mmpp_rates(rate_per_us, burstiness))
        self._rng = rng
        #: Undrawn standard exponentials, next one last.
        self._draws: list[float] = []
        _refill(self._draws, rng)
        self._state = 1  # quiet
        #: Sim-time at which the current state ends.
        self._state_until = self.dwell_us * self._draws.pop()

    def next_after(self, t_us: float) -> float:
        draws = self._draws
        while True:
            # Entering a fresh observation instant inside the current
            # state: exponential races are memoryless, so re-drawing
            # the arrival gap from ``t_us`` is distribution-exact.
            if not draws:
                _refill(draws, self._rng)
            gap = self._scales[self._state] * draws.pop()
            if t_us + gap <= self._state_until:
                return t_us + gap
            # The state flipped first; resume the race from the switch.
            t_us = self._state_until
            self._state = 1 - self._state
            if not draws:
                _refill(draws, self._rng)
            self._state_until = t_us + self.dwell_us * draws.pop()


def make_arrivals(kind: str, rate_per_us: float,
                  rng: np.random.Generator,
                  burstiness: float = DEFAULT_BURSTINESS):
    """Build an arrival process by CLI name."""
    if kind == "poisson":
        return PoissonArrivals(rate_per_us, rng)
    if kind == "mmpp":
        return MMPPArrivals(rate_per_us, rng, burstiness=burstiness)
    raise ConfigError(
        f"arrival kind must be one of {ARRIVAL_KINDS}, got {kind!r}")


__all__ = [
    "ARRIVAL_KINDS",
    "DEFAULT_BURSTINESS",
    "MMPPArrivals",
    "PoissonArrivals",
    "make_arrivals",
    "mmpp_rates",
]

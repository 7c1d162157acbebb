"""Latency under load: an M/D/c queueing view of the device.

The per-operation latencies elsewhere in the library are *unloaded*
service times. Under a sustained request rate the device also queues; this
module provides the standard M/D/c approximation so experiments can ask
"what does the 4 KiB read latency look like at 80 % of saturation on a
worn device?" — the load axis §4.2's latency-sensitivity worry lives on.

Model: Poisson arrivals, deterministic service (expected-value latencies
are deterministic here), ``c`` parallel channels. Waiting time uses the
M/M/c Erlang-C result halved — the classic M/D/c approximation, exact for
c = 1.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError


def _erlang_c(c: int, offered: float) -> float:
    """Erlang-C probability of queueing with ``c`` servers, load ``offered``.

    Evaluated with the iterative term recurrence ``term_k = term_{k-1} *
    offered / k`` instead of literal ``offered**k / k!`` — the naive form
    overflows ``float`` for large ``c`` (``math.factorial(171)`` alone
    exceeds the double range) even though the ratio is well-conditioned.
    Returns 1.0 at or beyond saturation (every arrival queues).
    """
    if offered >= c:
        return 1.0
    if offered <= 0.0:
        return 0.0
    total = 0.0
    term = 1.0  # offered**0 / 0!
    for k in range(c):
        total += term
        term *= offered / (k + 1)
    # Loop exit: term == offered**c / c!
    tail = term / (1 - offered / c)
    return tail / (total + tail)


def md1_wait_us(service_us: float, arrival_per_us: float) -> float:
    """Mean queueing delay of an M/D/1 server (Pollaczek-Khinchine)."""
    if service_us <= 0:
        raise ConfigError(f"service_us must be positive, got {service_us!r}")
    if arrival_per_us < 0:
        raise ConfigError(
            f"arrival_per_us must be non-negative, got {arrival_per_us!r}")
    rho = arrival_per_us * service_us
    if rho >= 1.0:
        return math.inf
    return rho * service_us / (2 * (1 - rho))


def mdc_latency_us(service_us: float, iops: float, channels: int = 1) -> float:
    """Mean request latency (wait + service) at ``iops`` on ``channels``.

    Returns ``inf`` at or beyond saturation for every ``channels`` —
    never raises there, and the c = 1 exact path agrees with the c > 1
    approximation about where the boundary is (``offered >= channels``).
    As utilisation → 1 from below the value grows without bound but
    stays finite, so sweeps can walk arbitrarily close to the wall.
    """
    if channels < 1:
        raise ConfigError(f"channels must be >= 1, got {channels!r}")
    if iops < 0:
        raise ConfigError(f"iops must be non-negative, got {iops!r}")
    if service_us <= 0:
        raise ConfigError(f"service_us must be positive, got {service_us!r}")
    arrival_per_us = iops / 1e6
    offered = arrival_per_us * service_us
    if offered >= channels:
        return math.inf
    if channels == 1:
        return md1_wait_us(service_us, arrival_per_us) + service_us
    # M/D/c ~= half the M/M/c wait.
    wait_mmc = (_erlang_c(channels, offered) * service_us
                / (channels - offered))
    return wait_mmc / 2 + service_us


def mdc_wait_quantile_us(service_us: float, iops: float,
                         channels: int = 1,
                         percentile: float = 99.0) -> float:
    """Approximate waiting-time quantile of an M/D/c queue.

    Uses the standard exponential-tail approximation of the M/M/c
    waiting time, ``P(W > t) = ErlangC * exp(-(c - a) t / s)``, with
    the conditional mean halved for deterministic service — the same
    halving that makes :func:`mdc_latency_us` the M/D/c mean. When the
    probability of queueing is already below the tail mass (light
    load), the quantile is exactly zero. Deterministic service has a
    *lighter* tail than exponential, so this overestimates somewhat at
    high percentiles; ``repro report``'s ``traffic_p99/*`` rows, read
    off an ``agreement`` scenario's table, absorb that with a wider
    acceptance band (``repro.reporting.claims.TRAFFIC_TOLERANCE``).
    """
    if channels < 1:
        raise ConfigError(f"channels must be >= 1, got {channels!r}")
    if iops < 0:
        raise ConfigError(f"iops must be non-negative, got {iops!r}")
    if service_us <= 0:
        raise ConfigError(f"service_us must be positive, got {service_us!r}")
    if not 0 < percentile < 100:
        raise ConfigError(
            f"percentile must be in (0, 100), got {percentile!r}")
    offered = iops / 1e6 * service_us
    if offered >= channels:
        return math.inf
    queueing = _erlang_c(channels, offered)
    tail = (100.0 - percentile) / 100.0
    if queueing <= tail:
        return 0.0
    # Conditional mean wait, halved for deterministic service.
    scale = service_us / (2.0 * (channels - offered))
    return scale * math.log(queueing / tail)


def mdc_latency_quantile_us(service_us: float, iops: float,
                            channels: int = 1,
                            percentile: float = 99.0) -> float:
    """Latency quantile: :func:`mdc_wait_quantile_us` plus service.

    The overlay the traffic engine's per-tenant p99 claim rows compare
    against — deterministic service contributes its full value to every
    latency quantile.
    """
    wait = mdc_wait_quantile_us(service_us, iops, channels=channels,
                                percentile=percentile)
    return wait + service_us


def saturation_iops(service_us: float, channels: int = 1) -> float:
    """The request rate at which the device saturates."""
    if service_us <= 0:
        raise ConfigError(f"service_us must be positive, got {service_us!r}")
    if channels < 1:
        raise ConfigError(f"channels must be >= 1, got {channels!r}")
    return channels * 1e6 / service_us

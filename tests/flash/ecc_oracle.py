"""The scipy-backed binomial tail the ECC model used up to PR 17.

Until the tail moved in-house (``repro.flash.ecc._binomial_tail``),
``EccScheme.codeword_failure_probability`` was the method below, kept
here **verbatim** from commit 1720397. It lives on only as the test
oracle: ``tests/flash/test_binomial_tail.py`` holds the numpy kernel to
it, and ``src/`` no longer imports scipy at all. Importing this module
needs scipy (the ``test`` extra); callers skip when it is missing.
"""

from __future__ import annotations

from unittest import mock

from scipy import stats

from repro.errors import ConfigError
from repro.flash import ecc


def codeword_failure_probability(self, rber: float) -> float:
    """Probability one codeword sees more than ``t`` flips."""
    if rber < 0:
        raise ConfigError(f"rber must be non-negative, got {rber!r}")
    if rber == 0:
        return 0.0
    if rber >= 1:
        return 1.0
    return float(stats.binom.sf(self.correctable_bits,
                                self.codeword_bits // self.codewords,
                                rber))


def upper_tail(t: int, n: int, p: float) -> float:
    """``P[Binomial(n, p) > t]``, the same call on bare arguments."""
    return float(stats.binom.sf(t, n, p))


def lower_tail(t: int, n: int, p: float) -> float:
    """``P[Binomial(n, p) <= t]``: the small side when the tail is not."""
    return float(stats.binom.cdf(t, n, p))


def max_rber(codeword_bits: int, parity_bits: int, uber_target: float,
             codewords: int = 1) -> float:
    """The parent's ``max_rber``: today's bisection (unchanged since)
    run uncached over the scipy-backed method above."""
    with mock.patch.object(ecc.EccScheme, "codeword_failure_probability",
                           codeword_failure_probability):
        return ecc._max_rber_cached.__wrapped__(
            codeword_bits, parity_bits, uber_target, codewords)

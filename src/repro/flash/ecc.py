"""ECC capability model: code rate -> correctable bits -> max tolerable RBER.

The paper's RegenS mode trades data capacity for parity ("repurpose oPages
for extra ECC"), so the library needs a quantitative link from *how much
parity a page carries* to *how error-prone the page may become before it is
unreliable*. Following the BCH/LDPC treatment the paper cites (Marelli &
Micheloni [12]), we model a page as one binary-BCH-style codeword:

* a codeword of ``n`` bits with ``r`` parity bits corrects
  ``t = floor(r / ceil(log2(n + 1)))`` bit errors (the classic BCH bound);
* a read fails when more than ``t`` of the ``n`` bits flip, which for
  independent flips at rate ``rber`` has probability
  ``P[Binomial(n, rber) > t]``;
* the page is *reliable* at ``rber`` while that probability stays below an
  uncorrectable-bit-error-rate target (``uber_target``, default 1e-15 per
  read — the JEDEC-class requirement for enterprise drives).

``max_rber()`` inverts the failure probability by bisection; this single
number is what the tiredness machinery feeds into the RBER model's inverse
to obtain per-level PEC limits. The tail itself is ``_binomial_tail``
below: this module, like all of ``src/``, needs numpy and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ConfigError


def bch_correctable_bits(codeword_bits: int, parity_bits: int) -> int:
    """Correctable bit errors for a binary BCH code.

    A ``t``-error-correcting BCH code over GF(2^m), with ``m`` the smallest
    integer such that the codeword fits (``2^m - 1 >= n``), spends at most
    ``m`` parity bits per corrected error. We use the resulting bound
    ``t = floor(r / m)``.
    """
    if codeword_bits <= 0:
        raise ConfigError(f"codeword_bits must be positive, got {codeword_bits!r}")
    if parity_bits < 0:
        raise ConfigError(f"parity_bits must be non-negative, got {parity_bits!r}")
    if parity_bits >= codeword_bits:
        raise ConfigError(
            f"parity_bits ({parity_bits}) must be smaller than the codeword "
            f"({codeword_bits}); a data-free codeword corrects nothing useful")
    m = max(1, math.ceil(math.log2(codeword_bits + 1)))
    return parity_bits // m


@dataclass(frozen=True)
class EccScheme:
    """An error-correction configuration for one flash page.

    The page's data+parity bits are split evenly into ``codewords``
    independent BCH codewords (production controllers protect a 16 KiB
    page with several 1-2 KiB codewords rather than one giant one); the
    page read fails if *any* codeword exceeds its correction budget.

    Attributes:
        codeword_bits: total bits covered across the page (data + parity).
        parity_bits: bits devoted to parity within the page.
        uber_target: maximum acceptable page-read failure probability.
        codewords: independent codewords the page is split into.
    """

    codeword_bits: int
    parity_bits: int
    uber_target: float = 1e-15
    codewords: int = 1

    def __post_init__(self) -> None:
        if self.codewords < 1:
            raise ConfigError(
                f"codewords must be >= 1, got {self.codewords!r}")
        if self.codeword_bits % self.codewords or \
                self.parity_bits % self.codewords:
            raise ConfigError(
                f"page bits ({self.codeword_bits}/{self.parity_bits}) must "
                f"split evenly into {self.codewords} codewords")
        # Validates the per-codeword bit counts as a side effect.
        bch_correctable_bits(self.codeword_bits // self.codewords,
                             self.parity_bits // self.codewords)
        if not 0.0 < self.uber_target < 1.0:
            raise ConfigError(
                f"uber_target must be in (0, 1), got {self.uber_target!r}")

    @classmethod
    def for_page(cls, data_bytes: int, parity_bytes: int,
                 uber_target: float = 1e-15,
                 codewords: int = 1) -> "EccScheme":
        """Build a scheme from byte counts (the natural page-level view)."""
        return cls(
            codeword_bits=(data_bytes + parity_bytes) * 8,
            parity_bits=parity_bytes * 8,
            uber_target=uber_target,
            codewords=codewords,
        )

    @property
    def data_bits(self) -> int:
        return self.codeword_bits - self.parity_bits

    @property
    def code_rate(self) -> float:
        """Fraction of the page that is data: ``k / n``."""
        return self.data_bits / self.codeword_bits

    @property
    def correctable_bits(self) -> int:
        """``t``: bit errors *per codeword* this scheme can correct."""
        return bch_correctable_bits(self.codeword_bits // self.codewords,
                                    self.parity_bits // self.codewords)

    def codeword_failure_probability(self, rber: float) -> float:
        """Probability one codeword sees more than ``t`` flips."""
        if not rber >= 0:  # negative or NaN
            raise ConfigError(f"rber must be non-negative, got {rber!r}")
        if rber == 0:
            return 0.0
        if rber >= 1:
            return 1.0
        return _binomial_tail(self.correctable_bits,
                              self.codeword_bits // self.codewords, rber)

    def page_failure_probability(self, rber: float) -> float:
        """Probability a page read is uncorrectable.

        Bit flips are independent at rate ``rber``; the page fails when
        *any* of its codewords exceeds its budget:
        ``1 - (1 - P_cw)^codewords``.
        """
        p_codeword = self.codeword_failure_probability(rber)
        if self.codewords == 1:
            return p_codeword
        return float(-np.expm1(self.codewords * np.log1p(-p_codeword))) \
            if p_codeword < 1.0 else 1.0

    def max_rber(self) -> float:
        """Largest RBER at which the page still meets ``uber_target``.

        Solved by bisection on the (monotone) failure probability. The
        result is cached per (n, r, target, codewords) because the
        tiredness machinery queries it repeatedly.
        """
        return _max_rber_cached(
            self.codeword_bits, self.parity_bits, self.uber_target,
            self.codewords)

    def is_reliable_at(self, rber: float) -> bool:
        """Whether a page at ``rber`` still meets the UBER target."""
        return self.page_failure_probability(rber) <= self.uber_target


def binary_entropy(p: float) -> float:
    """Binary entropy H2(p) in bits; H2(0) = H2(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"p must be in [0, 1], got {p!r}")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * math.log2(p) - (1 - p) * math.log2(1 - p))


def inverse_binary_entropy(h: float) -> float:
    """The p in [0, 1/2] with H2(p) = h, by bisection."""
    if not 0.0 <= h <= 1.0:
        raise ConfigError(f"h must be in [0, 1], got {h!r}")
    lo, hi = 0.0, 0.5
    for _ in range(80):
        mid = (lo + hi) / 2
        if binary_entropy(mid) < h:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@dataclass(frozen=True)
class LdpcScheme:
    """Capacity-approaching (LDPC-style) ECC with a waterfall threshold.

    Modern drives use soft-decision LDPC rather than BCH (the paper's [12]
    covers both). Instead of a per-bit correction budget, LDPC is modelled
    by its information-theoretic behaviour on a binary symmetric channel:
    a rate-R code decodes reliably while ``R <= efficiency * (1 - H2(p))``
    — ``efficiency`` is how close the code gets to Shannon capacity
    (~0.94-0.97 for production codes) — and fails sharply beyond that
    waterfall.

    The interface matches :class:`EccScheme` (``max_rber``,
    ``correctable_bits``, ``page_failure_probability``) so tiredness
    policies and the chip accept either family.
    """

    codeword_bits: int
    parity_bits: int
    efficiency: float = 0.96
    uber_target: float = 1e-15

    def __post_init__(self) -> None:
        if self.codeword_bits <= 0:
            raise ConfigError(
                f"codeword_bits must be positive, got {self.codeword_bits!r}")
        if not 0 <= self.parity_bits < self.codeword_bits:
            raise ConfigError(
                f"parity_bits must be in [0, codeword_bits), "
                f"got {self.parity_bits!r}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigError(
                f"efficiency must be in (0, 1], got {self.efficiency!r}")
        if not 0.0 < self.uber_target < 1.0:
            raise ConfigError(
                f"uber_target must be in (0, 1), got {self.uber_target!r}")

    @classmethod
    def for_page(cls, data_bytes: int, parity_bytes: int,
                 efficiency: float = 0.96,
                 uber_target: float = 1e-15) -> "LdpcScheme":
        """Build a scheme from byte counts (mirrors ``EccScheme.for_page``)."""
        return cls(codeword_bits=(data_bytes + parity_bytes) * 8,
                   parity_bits=parity_bytes * 8,
                   efficiency=efficiency, uber_target=uber_target)

    @property
    def data_bits(self) -> int:
        return self.codeword_bits - self.parity_bits

    @property
    def code_rate(self) -> float:
        return self.data_bits / self.codeword_bits

    def max_rber(self) -> float:
        """Waterfall threshold: the p where R = efficiency * (1 - H2(p)).

        Cached per (n, r, efficiency) — the 80-iteration entropy
        bisection used to run on *every* call, and ``correctable_bits``
        (hit per chip read) depends on it.
        """
        return _ldpc_max_rber_cached(self.codeword_bits, self.parity_bits,
                                     self.efficiency)

    @property
    def correctable_bits(self) -> int:
        """Realised-error budget: flips beyond ``n * max_rber`` defeat the
        decoder (hard-decision view of the waterfall, used by the chip's
        error-injection path)."""
        return int(self.codeword_bits * self.max_rber())

    def page_failure_probability(self, rber: float) -> float:
        """Sharp-waterfall approximation of the LDPC failure curve."""
        if not rber >= 0:  # negative or NaN
            raise ConfigError(f"rber must be non-negative, got {rber!r}")
        if rber == 0:
            return 0.0
        threshold = self.max_rber()
        if threshold == 0.0:
            return 1.0
        return 0.0 if rber <= threshold else 1.0

    def is_reliable_at(self, rber: float) -> bool:
        return self.page_failure_probability(rber) <= self.uber_target


@lru_cache(maxsize=4096)
def _ldpc_max_rber_cached(codeword_bits: int, parity_bits: int,
                          efficiency: float) -> float:
    """Waterfall threshold for an LDPC configuration (see
    :meth:`LdpcScheme.max_rber`); computed identically, once."""
    code_rate = (codeword_bits - parity_bits) / codeword_bits
    headroom = 1.0 - code_rate / efficiency
    if headroom <= 0:
        return 0.0
    return inverse_binary_entropy(headroom)


@lru_cache(maxsize=4096)
def _max_rber_cached(codeword_bits: int, parity_bits: int,
                     uber_target: float, codewords: int = 1) -> float:
    scheme = EccScheme(codeword_bits, parity_bits, uber_target, codewords)
    t = scheme.correctable_bits
    if t == 0:
        return 0.0
    # The answer lies strictly below t/n_cw (above it the mean number of
    # flips per codeword already exceeds capability). Bisect on [0, t/n_cw].
    lo, hi = 0.0, t / (codeword_bits // codewords)
    for _ in range(200):
        mid = (lo + hi) / 2
        if scheme.page_failure_probability(mid) <= uber_target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return lo


def _binomial_tail(t: int, n: int, p: float) -> float:
    """``P[Binomial(n, p) > t]`` for ``0 < p < 1``, in numpy alone.

    The pmf is summed *away* from the mode, so terms only decay and no
    ``0 * inf`` can form: the upper tail directly when
    ``t + 1 >= (n + 1) p``, else one minus the lower tail (which is the
    upper tail of ``n - X ~ Binomial(n, 1 - p)``). The first term is
    taken in log space — ``log C(n, k)`` as a sum of ``log((n - k + i) /
    i)``, because an ``lgamma`` difference cancels to ~4e-10 at
    n ~ 1.5e5 — and extended by the pmf ratio recurrence until a term
    no longer moves the sum (docs/PERFORMANCE.md, "Cold start").
    """
    if not 0 <= t < n:
        return 1.0 if t < 0 else 0.0
    upper = t + 1 >= (n + 1) * p
    k, log_p, log_q, odds = (
        (t + 1, math.log(p), math.log1p(-p), p / (1.0 - p)) if upper
        else (n - t, math.log1p(-p), math.log(p), (1.0 - p) / p))
    i = np.arange(1, min(k, n - k) + 1)
    # One exactly rounded sum of small pieces — the logs in blocks of 64,
    # each product as two exact halves — so log pmf(k) carries the
    # rounding of the two logarithms, not of partial sums as large as n.
    pieces = [*np.add.reduceat(np.log((n - i.size + i) / i), i[::64] - 1)]
    for count, log in ((k, log_p), (n - k, log_q)):
        head = float(np.float32(log))    # 24 bits: count * head is exact
        pieces += [count * head, count * (log - head)]
    term = total = math.exp(math.fsum(pieces))
    while k < n and total + term != total:
        ks = np.arange(k, min(k + 256, n))
        terms = term * np.cumprod((n - ks) / (ks + 1) * odds)
        total += float(terms.sum())
        term, k = float(terms[-1]), k + ks.size
    return total if upper else 1.0 - total

"""The in-house binomial tail against three independent references.

``repro.flash.ecc._binomial_tail`` replaced ``scipy.stats.binom.sf`` so
that the runtime needs numpy only (docs/PERFORMANCE.md, "Kernels and
their twins").
``max_rber`` — the one number the rest of the simulator reads off it —
is a threshold bisection, so it is robust to a 1e-12 relative change in
the tail but not immune: identity is a *measurement*, and this file is
where it is made.

* **Pinned table** (``max_rber_pins.json``): ``max_rber().hex()`` of 238
  schemes, written on the parent commit — scipy tail — before any source
  edit. Bit-for-bit, and it needs no scipy to check.
* **scipy** (``ecc_oracle.py``, the parent's line verbatim), when it is
  installed: hypothesis over the whole domain of the kernel.
* **Exact rationals** (``math.comb`` + ``fractions.Fraction``) for small
  ``n``: independent of both.

``test_seeded_mutations_are_caught`` breaks the kernel three ways and
requires the checks above to notice each.
"""

from __future__ import annotations

import inspect
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import ecc
from repro.flash.ecc import EccScheme, _binomial_tail
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy

try:
    from tests.flash import ecc_oracle
except ImportError:  # numpy-only install: scipy is in the `test` extra
    ecc_oracle = None
needs_scipy = pytest.mark.skipif(
    ecc_oracle is None, reason="scipy (test-only oracle) is not installed")

PINS = json.loads(
    (Path(__file__).parent / "max_rber_pins.json").read_text())["rows"]

#: Codeword sizes hypothesis draws from; the largest one the repo's own
#: sweeps build (8 oPages + 8 KiB of spare, one codeword) is 327,680 bits.
MAX_N = 1 << 19


def assert_close(got: float, upper, lower, rel) -> None:
    """``got`` is the upper tail to ``rel`` of whichever side is small.

    When the tail itself is the big side it is ``1 - lower`` in any
    arithmetic, so its own rounding (half an ulp below 1) is allowed on
    top; a small tail gets no absolute allowance at all.
    """
    assert not math.isnan(got)
    if upper <= lower:
        # 1e-300: below it doubles are subnormal and carry no digits.
        assert abs(got - upper) <= rel * upper + 1e-300, (got, upper)
    else:
        assert abs(got - upper) <= rel * lower + 2.0 ** -53, (got, upper)


# -- (a) the pinned table ----------------------------------------------------

def pin_mismatches(rows=PINS) -> list:
    """Rows whose ``max_rber`` is not the parent's float, bit for bit.
    Uncached, so it always runs the ``_binomial_tail`` installed now."""
    return [
        (n, r, uber, cw, want, got)
        for n, r, uber, cw, want in rows
        for got in [ecc._max_rber_cached.__wrapped__(
            n, r, float(uber), cw).hex()]
        if got != want]


def test_pinned_max_rber_is_the_parents_float_bit_for_bit():
    assert len(PINS) == 238
    assert pin_mismatches() == []


def test_the_public_paths_read_the_pinned_values():
    pins = {(n, r, uber, cw): want for n, r, uber, cw, want in PINS}
    for geometry in (FlashGeometry(),
                     FlashGeometry(opages_per_fpage=2, spare_bytes=1024)):
        policy = TirednessPolicy(geometry=geometry)
        for level in policy.usable_levels:
            scheme = policy.ecc_for_level(level)
            key = (scheme.codeword_bits, scheme.parity_bits, "1e-15", 1)
            assert scheme.max_rber().hex() == pins[key]
            assert policy.max_rber(level).hex() == pins[key]


# -- (b) scipy, over the kernel's whole domain -------------------------------

@st.composite
def tail_arguments(draw):
    n = draw(st.integers(1, MAX_N))
    # Both ends of (0, 1) on a log scale, and the bulk in between.
    tiny = draw(st.floats(0.01, 11.99))
    p = draw(st.sampled_from([10.0 ** -tiny, 1.0 - 10.0 ** -tiny,
                              draw(st.floats(0.001, 0.999))]))
    # Anywhere, or within a few deviations of the mean, where neither
    # side has underflowed and the mode switch sits.
    spread = math.sqrt(n * p * (1.0 - p)) + 1.0
    near = round(n * p + draw(st.floats(-8.0, 8.0)) * spread)
    t = draw(st.sampled_from([draw(st.integers(0, n)),
                              min(max(near, 0), n)]))
    return t, n, p


@needs_scipy
@given(tail_arguments())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_tail_matches_scipy_on_the_small_side(arguments):
    t, n, p = arguments
    assert 1e-12 < p < 1.0 - 1e-12
    assert_close(_binomial_tail(t, n, p),
                 ecc_oracle.upper_tail(t, n, p),
                 ecc_oracle.lower_tail(t, n, p), rel=1e-10)


@needs_scipy
@given(opage=st.sampled_from([512, 1024, 2048, 4096, 8192]),
       opages=st.integers(2, 8), level=st.integers(0, 7),
       spare=st.integers(1, 64).map(lambda units: units * 64),
       codewords=st.sampled_from([1, 2, 4, 8]),
       uber=st.sampled_from([1e-9, 1e-12, 1e-15, 1e-18]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_max_rber_matches_the_oracle_on_arbitrary_schemes(
        opage, opages, level, spare, codewords, uber):
    level %= opages
    scheme = EccScheme.for_page((opages - level) * opage,
                                spare + level * opage, uber, codewords)
    key = (scheme.codeword_bits, scheme.parity_bits, uber, codewords)
    ours = ecc._max_rber_cached.__wrapped__(*key)
    assert abs(ours - ecc_oracle.max_rber(*key)) <= 2e-12


@needs_scipy
def test_the_oracle_regenerates_the_pinned_table():
    """The table really is the parent's arithmetic (first 24 rows)."""
    for n, r, uber, cw, want in PINS[:24]:
        assert ecc_oracle.max_rber(n, r, float(uber), cw).hex() == want


# -- (c) exact rationals -----------------------------------------------------

EXACT_N = (1, 2, 3, 7, 16, 33, 40)
EXACT_P = (1e-9, 1e-3, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0 - 1e-6)


def check_exact_rationals() -> None:
    """Every ``t`` for small ``n``; ``p`` is the double's exact value."""
    tail = ecc._binomial_tail    # looked up now: a mutant may be installed
    for n in EXACT_N:
        for p in EXACT_P:
            odds, fail = Fraction(p), 1 - Fraction(p)
            pmf = [math.comb(n, k) * odds ** k * fail ** (n - k)
                   for k in range(n + 1)]
            assert sum(pmf) == 1
            for t in range(-1, n + 1):
                upper = sum(pmf[t + 1:])
                got = tail(t, n, p)
                assert 0.0 <= got <= 1.0
                assert_close(Fraction(got), upper, 1 - upper,
                             rel=Fraction(1, 10 ** 13))


def test_tail_matches_exact_rationals():
    check_exact_rationals()


# -- (d) edges ---------------------------------------------------------------

N_DEFAULT = 147_456   # the default 18 KiB fPage, one codeword


def check_edges() -> None:
    tail = ecc._binomial_tail
    for n in (1, 40, N_DEFAULT):
        for p in (1e-12, 0.3, 1.0 - 1e-12):
            assert tail(n, n, p) == 0.0           # t >= n: nothing above
            assert tail(n + 5, n, p) == 0.0
            assert tail(-1, n, p) == 1.0          # P[X >= 0]
    # Deep tails underflow to exactly 0.0 / 1.0, never NaN or inf.
    assert tail(100_000, N_DEFAULT, 1e-9) == 0.0
    assert tail(100, N_DEFAULT, 0.5) == 1.0
    assert tail(100, N_DEFAULT, 1.0 - 1e-13) == 1.0
    assert tail(3, 1000, 5e-324) == 0.0
    for t in (0, 910, N_DEFAULT // 2, N_DEFAULT - 1):
        for p in (5e-324, 1e-300, 1e-12, 0.5, 1.0 - 1e-13, 1.0 - 2.0 ** -53):
            assert 0.0 <= tail(t, N_DEFAULT, p) <= 1.0
    assert tail(N_DEFAULT // 2, N_DEFAULT, 0.5) == pytest.approx(
        0.5, abs=2e-3)
    assert tail(N_DEFAULT - 1, N_DEFAULT, 1.0 - 1e-13) == pytest.approx(
        (1.0 - 1e-13) ** N_DEFAULT, rel=1e-12)


def test_edges():
    check_edges()


@pytest.mark.parametrize("t,n", [(910, N_DEFAULT), (113, 18_432), (3, 40)])
def test_monotone_in_p_across_the_mode_switch(t, n):
    """The direct sum and one-minus-the-other-side meet without a step."""
    switch = (t + 1) / (n + 1)
    ps = [switch * (1.0 + step * 1e-3) for step in range(-200, 201)]
    tails = [_binomial_tail(t, n, p) for p in ps]
    assert all(a < b for a, b in zip(tails, tails[1:]))
    assert tails[0] < 0.5 < tails[-1]


# -- (e) seeded mutations ----------------------------------------------------

#: What breaks -> ((old, new) on the kernel's source, the check that
#: must notice). ``old`` must still be there, so a mutation cannot
#: silently stop applying.
MUTATIONS = {
    "tail truncated to its first term": (
        ("while k < n and total + term != total:", "while False:"),
        check_exact_rationals),
    "mode test flipped: summing toward the mode": (
        ("upper = t + 1 >= (n + 1) * p", "upper = t + 1 < (n + 1) * p"),
        check_edges),
    "P[X >= t] for P[X > t]": (
        ("    upper = t + 1 >=", "    t -= 1\n    upper = t + 1 >="),
        check_exact_rationals),
}


def _mutant(old: str, new: str):
    source = inspect.getsource(_binomial_tail)
    assert old in source, f"mutation target vanished: {old!r}"
    namespace: dict = {}
    exec(source.replace(old, new, 1), vars(ecc), namespace)
    return namespace["_binomial_tail"]


@pytest.mark.parametrize("name", MUTATIONS)
def test_seeded_mutations_are_caught(name, monkeypatch):
    edit, check = MUTATIONS[name]
    check()
    assert pin_mismatches(PINS[:12]) == []
    monkeypatch.setattr(ecc, "_binomial_tail", _mutant(*edit))
    with pytest.raises(AssertionError):
        check()
    # ...and every one of them moves the number the simulator reads.
    assert len(pin_mismatches(PINS[:12])) == 12

"""Block-drawn arrival gaps are the scalar draws they replaced.

``PoissonArrivals`` and ``MMPPArrivals`` draw standard exponentials
``_BLOCK`` at a time and scale each one (``(1.0 / rate) * e`` for a
gap, ``dwell_us * e`` for a dwell). Every ``next_after`` instant must
be the float the one-draw-per-value processes in
``tests/workloads/arrivals_oracle.py`` return, over rates, burstiness,
dwell times, start instants and observation jitter (an engine asks
from the previous arrival; a test may ask from anywhere later). Each
sequence crosses at least three block boundaries, and each MMPP one
several state flips (dwells of at most the default ten mean arrival
gaps keep that certain in practice: the fewest flips seen over 10,000
seeds at burstiness 16 is 5).
"""

from __future__ import annotations

from itertools import cycle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import make_rng
from repro.workloads.arrivals import _BLOCK, MMPPArrivals, PoissonArrivals
from tests.workloads.arrivals_oracle import ScalarMMPP, ScalarPoisson

#: Instants compared per sequence: past three block boundaries even if
#: the race never flips.
ARRIVALS = 3 * _BLOCK + 40

rates = st.floats(min_value=1e-4, max_value=4.0)
starts = st.floats(min_value=0.0, max_value=1e7)
#: Extra time between an arrival and the next observation instant.
jitters = st.lists(st.sampled_from([0.0, 0.0, 0.5, 3.0, 250.0]) | st.floats(
    min_value=0.0, max_value=1e4), min_size=1, max_size=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def instants(process, start: float, gaps: list[float]) -> list[float]:
    t, seen = start, []
    for gap in cycle(gaps):
        if len(seen) == ARRIVALS:
            return seen
        t = process.next_after(t)
        seen.append(t)
        t += gap


@settings(max_examples=60, deadline=None)
@given(rate=rates, start=starts, gaps=jitters, seed=seeds)
def test_poisson_blocks_equal_scalar_draws(rate, start, gaps, seed):
    oracle = ScalarPoisson(rate, make_rng(seed))
    expected = instants(oracle, start, gaps)
    assert instants(PoissonArrivals(rate, make_rng(seed)), start,
                    gaps) == expected
    assert oracle.draws > 3 * _BLOCK


@settings(max_examples=60, deadline=None)
@given(rate=rates, burstiness=st.floats(min_value=1.0, max_value=16.0),
       dwell_arrivals=st.none() | st.floats(min_value=2.0, max_value=8.0),
       start=starts, gaps=jitters, seed=seeds)
def test_mmpp_blocks_equal_scalar_race(rate, burstiness, dwell_arrivals,
                                       start, gaps, seed):
    dwell_us = None if dwell_arrivals is None else dwell_arrivals / rate
    oracle = ScalarMMPP(rate, make_rng(seed), burstiness, dwell_us)
    expected = instants(oracle, start, gaps)
    assert instants(MMPPArrivals(rate, make_rng(seed), burstiness,
                                 dwell_us), start, gaps) == expected
    assert oracle.draws > 3 * _BLOCK
    assert oracle.flips >= 3

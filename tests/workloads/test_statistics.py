"""Statistical conformance of the workload generators and arrivals.

The traffic engine's claims lean on the generators actually having the
distributions they advertise: the Zipf hotspot really carries ~80 % of
the mass, the mixed generator really honours its op ratios, Poisson
inter-arrivals really are exponential, and MMPP really is
over-dispersed at the configured mean rate. Each property is pinned
with a goodness-of-fit test at a fixed seed — the draws are
deterministic, so a pass is a pass forever; a failure means the
generator (or the RNG discipline) changed.

The bit-identity sweeps at the bottom are the other half of the
contract: pulling ``rows`` in blocks (the traffic engine's
``draw_block``) must leave every stream exactly where one-op pulls
leave it, and ``ops`` must be the stamped view of the same rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rng import fork_rng, make_rng
from repro.workloads import (
    MixedGenerator,
    MMPPArrivals,
    OpType,
    PoissonArrivals,
    SequentialGenerator,
    UniformGenerator,
    ZipfianGenerator,
    hotspot_mass,
    make_arrivals,
    mmpp_rates,
)
from repro.workloads.generators import Operation, draw_block, stamp_payload

SEED = 20250808


@pytest.fixture
def stats():
    """scipy is a test-only dependency: the goodness-of-fit tests skip
    on a numpy-only install, the bit-identity sweeps still run."""
    return pytest.importorskip("scipy.stats")


#: Significance floor for the goodness-of-fit tests. Deterministic
#: seeds make these non-flaky: the p-value is a constant of the code.
ALPHA = 0.01


class TestZipfianHotspot:
    def test_hot_20_percent_carries_about_80_percent(self):
        """YCSB theta 0.99 on a small span is the classic 80/20."""
        n = 400
        mass = hotspot_mass(n, 0.99, hot_fraction=0.2)
        assert 0.72 <= mass <= 0.86

        generator = ZipfianGenerator(n, theta=0.99, seed=SEED)
        counts = np.zeros(n, dtype=int)
        for op in generator.ops(20_000):
            counts[op.lba] += 1
        # Hot set = the top-ranked fifth under the generator's own
        # permutation; measured mass must match the analytic mass.
        hot = generator._permutation[: n // 5]
        measured = counts[hot].sum() / counts.sum()
        assert abs(measured - mass) < 0.02

    def test_rank_distribution_chi_square(self, stats):
        """Sampled rank frequencies fit the analytic Zipf pmf."""
        n = 50
        draws = 30_000
        generator = ZipfianGenerator(n, theta=0.99, seed=SEED)
        counts = np.zeros(n, dtype=int)
        inverse = np.argsort(generator._permutation)
        for op in generator.ops(draws):
            counts[inverse[op.lba]] += 1
        ranks = np.arange(1, n + 1, dtype=float)
        weights = ranks**-0.99
        expected = draws * weights / weights.sum()
        _, p_value = stats.chisquare(counts, expected)
        assert p_value > ALPHA

    def test_theta_zero_is_uniform(self, stats):
        n = 64
        assert hotspot_mass(n, 0.0, hot_fraction=0.25) == 0.25
        generator = ZipfianGenerator(n, theta=0.0, seed=SEED)
        counts = np.zeros(n, dtype=int)
        for op in generator.ops(12_800):
            counts[op.lba] += 1
        _, p_value = stats.chisquare(counts)
        assert p_value > ALPHA


class TestMixedRatios:
    def test_op_mix_matches_configured_fractions(self, stats):
        base = UniformGenerator(256, seed=SEED)
        generator = MixedGenerator(base, read_fraction=0.5,
                                   trim_fraction=0.1, seed=SEED + 1)
        # Warm the written-set so reads/trims have targets; the mix
        # only applies once history exists.
        for _ in generator.ops(500):
            pass
        tallies = {OpType.READ: 0, OpType.WRITE: 0, OpType.TRIM: 0}
        total = 10_000
        for op in generator.ops(total):
            tallies[op.op] += 1
        observed = [tallies[OpType.READ], tallies[OpType.TRIM],
                    tallies[OpType.WRITE]]
        expected = [total * 0.5, total * 0.1, total * 0.4]
        _, p_value = stats.chisquare(observed, expected)
        assert p_value > ALPHA

    def test_reads_only_target_written_lbas(self):
        base = UniformGenerator(64, seed=SEED)
        generator = MixedGenerator(base, read_fraction=0.6, seed=SEED)
        written = set()
        for op in generator.ops(2_000):
            if op.op is OpType.WRITE:
                written.add(op.lba)
            else:
                assert op.lba in written


class TestPoissonArrivals:
    def test_interarrivals_are_exponential_ks(self, stats):
        rate = 0.05  # one arrival every 20 us on average
        arrivals = PoissonArrivals(rate, make_rng(SEED))
        t, gaps = 0.0, []
        for _ in range(5_000):
            nxt = arrivals.next_after(t)
            gaps.append(nxt - t)
            t = nxt
        _, p_value = stats.kstest(gaps, "expon", args=(0, 1.0 / rate))
        assert p_value > ALPHA

    def test_mean_rate(self):
        rate = 0.02
        arrivals = PoissonArrivals(rate, make_rng(SEED))
        t = 0.0
        n = 20_000
        for _ in range(n):
            t = arrivals.next_after(t)
        assert abs(n / t - rate) / rate < 0.02


class TestMMPPArrivals:
    def test_time_average_rate_matches_configured(self):
        rate = 0.05
        arrivals = MMPPArrivals(rate, make_rng(SEED), burstiness=4.0)
        t = 0.0
        n = 40_000
        for _ in range(n):
            t = arrivals.next_after(t)
        assert abs(n / t - rate) / rate < 0.05

    def test_overdispersed_vs_poisson(self, stats):
        """Burstiness shows up as inter-arrival CV > 1 and a KS reject
        against the plain exponential."""
        rate = 0.05
        arrivals = MMPPArrivals(rate, make_rng(SEED), burstiness=8.0)
        t, gaps = 0.0, []
        for _ in range(20_000):
            nxt = arrivals.next_after(t)
            gaps.append(nxt - t)
            t = nxt
        gaps = np.asarray(gaps)
        cv = gaps.std() / gaps.mean()
        assert cv > 1.05
        _, p_value = stats.kstest(gaps, "expon", args=(0, gaps.mean()))
        assert p_value < 1e-6

    def test_rate_split_preserves_mean(self):
        for burstiness in (1.0, 2.0, 4.0, 16.0):
            burst, quiet = mmpp_rates(0.1, burstiness)
            assert burst / quiet == burstiness or burstiness == 1.0
            assert abs((burst + quiet) / 2 - 0.1) < 1e-12

    def test_make_arrivals_dispatch(self):
        assert make_arrivals("poisson", 0.1, make_rng(0)).kind == "poisson"
        assert make_arrivals("mmpp", 0.1, make_rng(0)).kind == "mmpp"


class TestBlockDrawEquivalence:
    """N x ``rows(1)`` == blocks of ``rows(k)``: rows *and* RNG state."""

    COUNT = 300  # not a multiple of 7 or 64: the last block is cut short

    @staticmethod
    def _generators(seed):
        rng = make_rng(seed)
        yield SequentialGenerator(96, start=5)
        yield UniformGenerator(96, seed=fork_rng(rng, "uniform"))
        yield ZipfianGenerator(96, theta=0.99, seed=fork_rng(rng, "zipf"))
        yield ZipfianGenerator(96, theta=0.0, seed=fork_rng(rng, "zipf0"))
        yield MixedGenerator(
            UniformGenerator(96, seed=fork_rng(rng, "mixed-base")),
            read_fraction=0.4, trim_fraction=0.2,
            seed=fork_rng(rng, "mixed"))
        yield MixedGenerator(
            ZipfianGenerator(96, seed=fork_rng(rng, "mixed-zipf")),
            read_fraction=0.7, seed=fork_rng(rng, "mixed-z"))

    @staticmethod
    def _rng_states(generator):
        """Bit-generator state of every stream the generator owns."""
        owners = [generator, getattr(generator, "base", None)]
        return [owner.rng.bit_generator.state for owner in owners
                if hasattr(owner, "rng")]

    @staticmethod
    def _stamp(rows):
        """What the rows stand for: a write's payload stamped from its
        ``(lba, seq)``, reads and trims payload-free."""
        return [Operation(kind, lba,
                          None if seq is None else stamp_payload(lba, seq))
                for kind, lba, seq in rows]

    def test_blocks_match_one_op_pulls(self):
        for block in (1, 7, 64):
            for one, blocked, viewed in zip(self._generators(SEED),
                                            self._generators(SEED),
                                            self._generators(SEED)):
                expected = [row for _ in range(self.COUNT)
                            for row in one.rows(1)]
                got = []
                while len(got) < self.COUNT:
                    got.extend(blocked.rows(
                        min(block, self.COUNT - len(got))))
                name = type(one).__name__
                assert got == expected, (name, block)
                assert all(type(row) is tuple and len(row) == 3
                           and (row[2] is None) == (row[0] is not OpType.WRITE)
                           for row in got), (name, block)
                assert self._rng_states(blocked) == \
                    self._rng_states(one), (name, block)
                # ops() is the stamped view of the same rows, byte for
                # byte, and draws exactly what rows() draws.
                assert list(viewed.ops(self.COUNT)) == self._stamp(got), \
                    (name, block)
                assert self._rng_states(viewed) == \
                    self._rng_states(one), (name, block)

    def test_draw_block_matches_one_op_pulls_with_flips(self):
        """The engine's stream, read flips included: one flip draw per
        WRITE in op order, whatever the block size — and the flip RNG
        ends where per-op draws leave it."""
        for block in (1, 7, 64):
            for one, blocked in zip(self._generators(SEED),
                                    self._generators(SEED)):
                flip_one, flip_blocked = make_rng(SEED + 1), make_rng(SEED + 1)
                expected = []
                for _ in range(self.COUNT):
                    (row,) = one.rows(1)
                    if (row[0] is OpType.WRITE
                            and float(flip_one.random()) < 0.35):
                        expected.append((OpType.READ, row[1], None))
                    else:
                        expected.append(row)
                got = []
                while len(got) < self.COUNT:
                    got.extend(draw_block(
                        blocked, min(block, self.COUNT - len(got)),
                        flip_blocked, 0.35))
                name = type(one).__name__
                assert got == expected, (name, block)
                assert (flip_blocked.bit_generator.state
                        == flip_one.bit_generator.state), (name, block)
                assert self._rng_states(blocked) == \
                    self._rng_states(one), (name, block)

    def test_draw_block_without_flip_rng_passes_ops_through(self):
        a = UniformGenerator(32, seed=SEED)
        b = UniformGenerator(32, seed=SEED)
        assert draw_block(a, 40) == [row for _ in range(40)
                                     for row in b.rows(1)]

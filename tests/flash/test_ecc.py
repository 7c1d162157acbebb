"""Unit tests for the ECC capability model."""

import pytest

from repro.errors import ConfigError
from repro.flash.ecc import EccScheme, bch_correctable_bits
from repro.units import KIB


class TestBchBound:
    def test_known_value_for_default_page(self):
        # 18 KiB codeword -> m = 18; 2 KiB parity = 16384 bits -> t = 910.
        assert bch_correctable_bits(18 * KIB * 8, 2 * KIB * 8) == 910

    def test_more_parity_more_correction(self):
        n = 18 * KIB * 8
        t1 = bch_correctable_bits(n, 2 * KIB * 8)
        t2 = bch_correctable_bits(n, 6 * KIB * 8)
        assert t2 > t1

    def test_zero_parity_corrects_nothing(self):
        assert bch_correctable_bits(1024, 0) == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            bch_correctable_bits(0, 10)
        with pytest.raises(ConfigError):
            bch_correctable_bits(100, -1)
        with pytest.raises(ConfigError):
            bch_correctable_bits(100, 100)  # no data bits left


class TestEccScheme:
    def test_for_page_constructor(self):
        scheme = EccScheme.for_page(16 * KIB, 2 * KIB)
        assert scheme.codeword_bits == 18 * KIB * 8
        assert scheme.parity_bits == 2 * KIB * 8
        assert scheme.data_bits == 16 * KIB * 8

    def test_code_rate(self):
        scheme = EccScheme.for_page(16 * KIB, 2 * KIB)
        assert scheme.code_rate == pytest.approx(16 / 18)

    def test_failure_probability_monotone_in_rber(self):
        scheme = EccScheme.for_page(16 * KIB, 2 * KIB)
        probs = [scheme.page_failure_probability(r)
                 for r in (1e-4, 1e-3, 3e-3, 5e-3, 1e-2)]
        assert all(a <= b for a, b in zip(probs, probs[1:]))

    def test_failure_probability_edges(self):
        scheme = EccScheme.for_page(16 * KIB, 2 * KIB)
        assert scheme.page_failure_probability(0.0) == 0.0
        assert scheme.page_failure_probability(1.0) == 1.0
        with pytest.raises(ConfigError):
            scheme.page_failure_probability(-0.1)

    @pytest.mark.parametrize("codewords", [1, 4])
    def test_nan_rber_is_rejected_like_a_negative_one(self, codewords):
        # NaN fails every comparison: it used to slide past `rber < 0`
        # and come back as nan, so is_reliable_at(nan) was a silent False.
        scheme = EccScheme.for_page(16 * KIB, 2 * KIB, codewords=codewords)
        for method in (scheme.codeword_failure_probability,
                       scheme.page_failure_probability,
                       scheme.is_reliable_at):
            with pytest.raises(ConfigError, match="non-negative"):
                method(float("nan"))
        assert scheme.codeword_failure_probability(float("inf")) == 1.0
        assert scheme.page_failure_probability(float("inf")) == 1.0
        assert not scheme.is_reliable_at(float("inf"))

    def test_max_rber_meets_target(self):
        scheme = EccScheme.for_page(16 * KIB, 2 * KIB, uber_target=1e-15)
        limit = scheme.max_rber()
        assert scheme.page_failure_probability(limit) <= 1e-15
        # Just above the limit the target must be violated.
        assert scheme.page_failure_probability(limit * 1.05) > 1e-15

    def test_max_rber_below_naive_t_over_n(self):
        scheme = EccScheme.for_page(16 * KIB, 2 * KIB)
        assert scheme.max_rber() < scheme.correctable_bits / scheme.codeword_bits

    def test_lower_code_rate_tolerates_more_errors(self):
        strong = EccScheme.for_page(12 * KIB, 6 * KIB)
        weak = EccScheme.for_page(16 * KIB, 2 * KIB)
        assert strong.max_rber() > weak.max_rber()

    def test_tighter_target_means_lower_max_rber(self):
        loose = EccScheme.for_page(16 * KIB, 2 * KIB, uber_target=1e-9)
        tight = EccScheme.for_page(16 * KIB, 2 * KIB, uber_target=1e-18)
        assert tight.max_rber() < loose.max_rber()

    def test_is_reliable_at(self):
        scheme = EccScheme.for_page(16 * KIB, 2 * KIB)
        assert scheme.is_reliable_at(scheme.max_rber() * 0.5)
        assert not scheme.is_reliable_at(scheme.max_rber() * 2.0)

    def test_zero_parity_max_rber_is_zero(self):
        scheme = EccScheme(codeword_bits=4096, parity_bits=0)
        assert scheme.max_rber() == 0.0

    def test_uber_target_validation(self):
        with pytest.raises(ConfigError):
            EccScheme(1024, 128, uber_target=0.0)
        with pytest.raises(ConfigError):
            EccScheme(1024, 128, uber_target=1.0)

"""Unit tests for the LDPC-style capacity-approaching ECC model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.flash.ecc import (
    EccScheme,
    LdpcScheme,
    binary_entropy,
    inverse_binary_entropy,
)
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.units import KIB


class TestBinaryEntropy:
    def test_known_values(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.11) == pytest.approx(0.5, abs=0.01)

    def test_symmetry(self):
        assert binary_entropy(0.2) == pytest.approx(binary_entropy(0.8))

    @given(h=st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_inverse_roundtrip(self, h):
        p = inverse_binary_entropy(h)
        assert 0.0 <= p <= 0.5
        assert binary_entropy(p) == pytest.approx(h, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ConfigError):
            binary_entropy(-0.1)
        with pytest.raises(ConfigError):
            inverse_binary_entropy(1.5)


class TestLdpcScheme:
    def test_waterfall_threshold(self):
        scheme = LdpcScheme.for_page(16 * KIB, 2 * KIB, efficiency=0.96)
        threshold = scheme.max_rber()
        assert scheme.page_failure_probability(threshold * 0.99) == 0.0
        assert scheme.page_failure_probability(threshold * 1.01) == 1.0

    def test_nan_rber_is_rejected_like_a_negative_one(self):
        # `nan <= threshold` is False, so NaN used to answer 1.0.
        for scheme in (LdpcScheme.for_page(16 * KIB, 2 * KIB),
                       LdpcScheme.for_page(16 * KIB, 64)):  # threshold 0
            for method in (scheme.page_failure_probability,
                           scheme.is_reliable_at):
                with pytest.raises(ConfigError, match="non-negative"):
                    method(float("nan"))
            with pytest.raises(ConfigError, match="non-negative"):
                scheme.page_failure_probability(-0.1)
            assert scheme.page_failure_probability(float("inf")) == 1.0

    def test_beats_bch_at_same_layout(self):
        # The motivation for LDPC in drives: more tolerable RBER at the
        # same code rate.
        ldpc = LdpcScheme.for_page(16 * KIB, 2 * KIB, efficiency=0.96)
        bch = EccScheme.for_page(16 * KIB, 2 * KIB)
        assert ldpc.max_rber() > bch.max_rber()

    def test_never_exceeds_shannon(self):
        scheme = LdpcScheme.for_page(16 * KIB, 2 * KIB, efficiency=1.0)
        # At efficiency 1 the threshold IS the Shannon limit for rate 8/9.
        assert binary_entropy(scheme.max_rber()) == pytest.approx(
            1 - 16 / 18, abs=1e-9)

    def test_lower_efficiency_lowers_threshold(self):
        strong = LdpcScheme.for_page(16 * KIB, 2 * KIB, efficiency=0.97)
        weak = LdpcScheme.for_page(16 * KIB, 2 * KIB, efficiency=0.90)
        assert weak.max_rber() < strong.max_rber()

    def test_rate_above_efficiency_corrects_nothing(self):
        scheme = LdpcScheme(codeword_bits=1000, parity_bits=10,
                            efficiency=0.9)  # rate 0.99 > 0.9
        assert scheme.max_rber() == 0.0
        assert scheme.page_failure_probability(1e-9) == 1.0

    def test_correctable_bits_consistent_with_threshold(self):
        scheme = LdpcScheme.for_page(16 * KIB, 2 * KIB)
        assert scheme.correctable_bits == int(
            scheme.codeword_bits * scheme.max_rber())

    def test_lower_code_rate_raises_threshold(self):
        l0 = LdpcScheme.for_page(16 * KIB, 2 * KIB)
        l1 = LdpcScheme.for_page(12 * KIB, 6 * KIB)
        assert l1.max_rber() > l0.max_rber()

    @pytest.mark.parametrize("kwargs", [
        {"codeword_bits": 0, "parity_bits": 0},
        {"codeword_bits": 100, "parity_bits": 100},
        {"codeword_bits": 100, "parity_bits": 10, "efficiency": 0.0},
        {"codeword_bits": 100, "parity_bits": 10, "uber_target": 1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            LdpcScheme(**kwargs)


class TestLdpcTirednessPolicy:
    def test_family_selects_scheme(self):
        policy = TirednessPolicy(ecc_family="ldpc")
        assert isinstance(policy.ecc_for_level(0), LdpcScheme)
        assert isinstance(TirednessPolicy().ecc_for_level(0), EccScheme)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            TirednessPolicy(ecc_family="turbo")

    def test_ldpc_extends_absolute_pec_on_same_flash(self):
        # Calibrate the flash against BCH capabilities, then ask how far
        # the *same* wear curve stretches under LDPC: every level gains.
        bch_policy = TirednessPolicy(ecc_family="bch")
        model = calibrate_power_law(bch_policy, pec_limit_l0=3000)
        ldpc_policy = TirednessPolicy(ecc_family="ldpc")
        for level in bch_policy.usable_levels:
            assert (ldpc_policy.pec_limit(level, model)
                    > bch_policy.pec_limit(level, model))

    def test_calibration_works_under_ldpc(self):
        policy = TirednessPolicy(ecc_family="ldpc")
        model = calibrate_power_law(policy, pec_limit_l0=1000)
        assert policy.lifetime_gain(1, model) == pytest.approx(0.5, abs=1e-6)

    def test_chip_runs_on_ldpc_policy(self, tiny_geometry):
        from repro.flash.chip import FlashChip
        policy = TirednessPolicy(geometry=tiny_geometry, ecc_family="ldpc")
        chip = FlashChip(tiny_geometry, policy=policy, seed=1,
                         variation_sigma=0.0)
        chip.program(0, [b"a", b"b", b"c", b"d"])
        data, _latency = chip.read(0, 2)
        assert data.rstrip(b"\0") == b"c"

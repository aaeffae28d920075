"""Unit and property tests for the Widrow PQN noise model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.psd_method import check_n_psd
from repro.fixedpoint.noise_model import (
    NoiseStats,
    quantization_noise_stats,
    quantization_step,
)
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantizer import Quantizer, RoundingMode
from repro.psd.spectrum import DiscretePsd


class TestNoiseStats:
    def test_power_combines_mean_and_variance(self):
        stats = NoiseStats(mean=0.5, variance=2.0)
        assert stats.power == pytest.approx(2.25)

    def test_scaling(self):
        stats = NoiseStats(mean=1.0, variance=4.0).scaled(-3.0)
        assert stats.mean == pytest.approx(-3.0)
        assert stats.variance == pytest.approx(36.0)

    def test_addition_of_uncorrelated_sources(self):
        total = NoiseStats(0.1, 1.0) + NoiseStats(-0.3, 2.0)
        assert total.mean == pytest.approx(-0.2)
        assert total.variance == pytest.approx(3.0)


class TestContinuousInputModel:
    def test_rounding_is_unbiased(self):
        stats = quantization_noise_stats(8, RoundingMode.ROUND)
        assert stats.mean == 0.0
        assert stats.variance == pytest.approx((2.0 ** -8) ** 2 / 12.0)

    def test_truncation_bias(self):
        stats = quantization_noise_stats(8, RoundingMode.TRUNCATE)
        assert stats.mean == pytest.approx(-(2.0 ** -8) / 2.0)

    def test_convergent_unbiased(self):
        stats = quantization_noise_stats(8, RoundingMode.CONVERGENT)
        assert stats.mean == 0.0

    def test_step_helper(self):
        assert quantization_step(None) == 0.0
        assert quantization_step(4) == 0.0625
        with pytest.raises(ValueError):
            quantization_step(-1)


class TestDiscreteInputModel:
    def test_requantization_variance(self):
        stats = quantization_noise_stats(4, RoundingMode.TRUNCATE,
                                         input_fractional_bits=8)
        q_out, q_in = 2.0 ** -4, 2.0 ** -8
        assert stats.variance == pytest.approx((q_out ** 2 - q_in ** 2) / 12.0)

    def test_requantization_round_includes_tie_term(self):
        # Ties away from zero: ±q_out/2 errors at the tie residue add
        # q_in^2/4 of variance on top of the tie-free (q_out^2-q_in^2)/12.
        stats = quantization_noise_stats(4, RoundingMode.ROUND,
                                         input_fractional_bits=8)
        q_out, q_in = 2.0 ** -4, 2.0 ** -8
        assert stats.variance == pytest.approx(
            (q_out ** 2 + 2.0 * q_in ** 2) / 12.0)

    def test_coarser_input_is_lossless(self):
        stats = quantization_noise_stats(8, RoundingMode.TRUNCATE,
                                         input_fractional_bits=4)
        assert stats.mean == 0.0
        assert stats.variance == 0.0

    def test_rounding_unbiased_for_discrete_input(self):
        # Ties away from zero is an odd characteristic: positive and
        # negative tie errors cancel, so re-quantization stays unbiased.
        stats = quantization_noise_stats(4, RoundingMode.ROUND,
                                         input_fractional_bits=6)
        assert stats.mean == 0.0

    def test_exhaustive_requantization_moments_match_model(self):
        # Enumerate every representable value of a symmetric fine-grid
        # range and compare the measured moments with the model exactly.
        in_bits, out_bits = 6, 3
        q_in = 2.0 ** -in_bits
        mantissas = np.arange(-2 ** in_bits, 2 ** in_bits)  # [-1, 1) grid
        x = mantissas * q_in
        quantizer = Quantizer(QFormat(4, out_bits), rounding=RoundingMode.ROUND)
        error = quantizer.error(x)
        model = quantization_noise_stats(out_bits, RoundingMode.ROUND,
                                         input_fractional_bits=in_bits)
        assert np.mean(error) == pytest.approx(model.mean, abs=1e-15)
        assert np.mean(error ** 2) == pytest.approx(model.power, rel=1e-12)


class TestAgainstEmpiricalQuantization:
    """The PQN model must match the measured moments of actual quantizers."""

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=4, max_value=12),
           st.sampled_from([RoundingMode.ROUND, RoundingMode.TRUNCATE]))
    def test_continuous_input_moments(self, frac, mode):
        rng = np.random.default_rng(frac)
        x = rng.uniform(-1.0, 1.0, 200_000)
        error = Quantizer(QFormat(4, frac), rounding=mode).error(x)
        model = quantization_noise_stats(frac, mode)
        assert np.mean(error) == pytest.approx(model.mean, abs=3e-2 * 2.0 ** -frac)
        assert np.mean(error ** 2) == pytest.approx(model.power, rel=0.05)

    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=3, max_value=8),
           st.integers(min_value=2, max_value=6),
           st.sampled_from([RoundingMode.ROUND, RoundingMode.TRUNCATE]))
    def test_requantization_moments(self, out_bits, extra_bits, mode):
        in_bits = out_bits + extra_bits
        rng = np.random.default_rng(out_bits * 13 + extra_bits)
        x = Quantizer(QFormat(4, in_bits)).quantize(
            rng.uniform(-1.0, 1.0, 200_000))
        error = Quantizer(QFormat(4, out_bits), rounding=mode).error(x)
        model = quantization_noise_stats(out_bits, mode,
                                         input_fractional_bits=in_bits)
        assert np.mean(error) == pytest.approx(model.mean,
                                               abs=3e-2 * 2.0 ** -out_bits)
        assert np.mean(error ** 2) == pytest.approx(model.power, rel=0.06)


class TestNoisePsd:
    """Eq. 10: the PSD of a white source, in the paper's convention."""

    def test_bins_sum_to_total_power(self):
        stats = NoiseStats(mean=0.25, variance=1.0)
        psd = DiscretePsd.white(stats, 64).values
        assert np.sum(psd) == pytest.approx(stats.variance + stats.mean ** 2,
                                            rel=1e-12)

    def test_variance_spread_over_all_bins(self):
        # Library-wide convention: variance/n on every bin (DC included),
        # the squared mean added on top of the DC bin.
        stats = NoiseStats(mean=0.5, variance=1.0)
        psd = DiscretePsd.white(stats, 16).values
        assert psd[0] == pytest.approx(0.25 + 1.0 / 16.0)
        np.testing.assert_allclose(psd[1:], 1.0 / 16.0)

    def test_requires_at_least_two_bins(self):
        with pytest.raises(ValueError, match="n_psd must be at least 2"):
            check_n_psd(1)
        check_n_psd(2)

"""Unit tests for PSD estimation (periodogram / Welch / 2-D)."""

import numpy as np
import pytest

from repro.psd.estimation import (
    estimate_psd,
    estimate_psd_2d,
    periodogram,
    welch,
    welch_batched,
)


class TestWelch:
    def test_white_noise_variance_recovered(self, rng):
        x = rng.standard_normal(50_000) * 0.3
        psd = welch(x, 128)
        assert psd.variance == pytest.approx(0.09, rel=0.05)

    def test_mean_recovered(self, rng):
        x = rng.standard_normal(20_000) + 0.7
        psd = welch(x, 64)
        assert psd.mean == pytest.approx(0.7, abs=0.02)

    def test_white_noise_is_flat(self, rng):
        x = rng.standard_normal(200_000)
        psd = welch(x, 32)
        np.testing.assert_allclose(psd.ac, np.mean(psd.ac), rtol=0.25)

    def test_sinusoid_concentrates_in_two_bins(self, rng):
        n = 64
        t = np.arange(50_000)
        x = np.sin(2 * np.pi * t * (8 / n)) + 0.001 * rng.standard_normal(50_000)
        psd = welch(x, n, window="hann")
        dominant = np.argsort(psd.ac)[-2:]
        assert set(dominant) == {8, n - 8}

    def test_lowpass_noise_has_lowpass_spectrum(self, rng):
        from repro.lti.fir_design import design_fir_lowpass
        taps = design_fir_lowpass(63, 0.2)
        x = np.convolve(rng.standard_normal(100_000), taps)[:100_000]
        psd = welch(x, 64)
        low_power = np.sum(psd.ac[:8]) + np.sum(psd.ac[-8:])
        assert low_power > 0.8 * psd.variance

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            welch(np.array([]), 16)

    def test_zero_power_window_rejected(self, rng):
        # A 2-point Hann window is all zeros.
        with pytest.raises(ValueError, match="zero power on 2 bins"):
            welch(rng.standard_normal(100), 2)
        with pytest.raises(ValueError, match="zero power on 2 bins"):
            welch_batched(rng.standard_normal((3, 100)), 2)

    def test_invalid_overlap_rejected(self, rng):
        with pytest.raises(ValueError):
            welch(rng.standard_normal(100), 16, overlap=1.0)

    def test_short_record_padded(self, rng):
        psd = welch(rng.standard_normal(10), 64)
        assert psd.n_bins == 64

    def test_short_record_preserves_variance_and_mean(self, rng):
        # Zero padding must not leak into the scalar statistics: the bins
        # still sum to the variance of the 10 actual samples.
        x = rng.standard_normal(10) + 0.3
        psd = welch(x, 64)
        assert psd.variance == pytest.approx(float(np.var(x)), rel=1e-9)
        assert psd.mean == pytest.approx(float(np.mean(x)))

    def test_single_sample_record(self):
        # Degenerate but legal: one sample has zero variance by definition.
        psd = welch(np.array([0.7]), 16)
        assert psd.n_bins == 16
        assert psd.variance == 0.0
        assert psd.mean == pytest.approx(0.7)

    def test_record_exactly_one_segment(self, rng):
        x = rng.standard_normal(64)
        psd = welch(x, 64)
        assert psd.n_bins == 64
        assert psd.variance == pytest.approx(float(np.var(x)), rel=1e-9)

    def test_overlap_near_one_clamps_hop_to_one_sample(self, rng):
        # n_bins * (1 - overlap) rounds to zero here; the hop must clamp
        # to one sample instead of looping forever or dividing by zero.
        x = rng.standard_normal(200)
        psd = welch(x, 64, overlap=0.999)
        assert psd.n_bins == 64
        assert psd.variance == pytest.approx(float(np.var(x)), rel=1e-9)

    def test_high_overlap_matches_variance(self, rng):
        x = rng.standard_normal(4096)
        for overlap in (0.9, 0.99):
            psd = welch(x, 128, overlap=overlap)
            assert psd.variance == pytest.approx(float(np.var(x)), rel=1e-9)

    def test_constant_record_gives_zero_variance(self):
        psd = welch(np.full(1000, 0.25), 32)
        assert psd.variance == 0.0
        assert psd.mean == pytest.approx(0.25)


class TestPeriodogram:
    def test_variance_recovered(self, rng):
        x = rng.standard_normal(40_000)
        psd = periodogram(x, 256)
        assert psd.variance == pytest.approx(1.0, rel=0.05)

    def test_estimate_psd_dispatch(self, rng):
        x = rng.standard_normal(5_000)
        assert estimate_psd(x, 64, method="welch").n_bins == 64
        assert estimate_psd(x, 64, method="periodogram").n_bins == 64
        with pytest.raises(ValueError):
            estimate_psd(x, 64, method="multitaper")


class TestPsd2d:
    def test_total_power_matches_mean_square(self, rng):
        error = rng.standard_normal((64, 64)) * 0.01
        spectrum = estimate_psd_2d(error)
        assert np.sum(spectrum) == pytest.approx(np.mean(error ** 2), rel=1e-9)

    def test_dc_at_center_after_shift(self):
        constant = np.full((32, 32), 0.5)
        spectrum = estimate_psd_2d(constant)
        assert np.argmax(spectrum) == np.ravel_multi_index((16, 16), (32, 32))

    def test_requires_2d(self, rng):
        with pytest.raises(ValueError):
            estimate_psd_2d(rng.standard_normal(64))

"""Unit tests for the radix-2 FFT: the shared butterfly kernel (exact)
and the bit-true fixed-point engine built on it."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lti.fft import FixedPointFft
from repro.simkernel.fft import fixed_fft_forward, fixed_fft_inverse


def _exact_twiddles(size):
    """Unquantized twiddle factors, keyed by butterfly size like the
    engine's quantized ones."""
    twiddles = {}
    stage = 2
    while stage <= size:
        twiddles[stage] = np.exp(-2j * np.pi * np.arange(stage // 2) / stage)
        stage *= 2
    return twiddles


def _identity(values):
    return values


def _exact_fft(x):
    size = x.shape[-1]
    return fixed_fft_forward(x, size, _exact_twiddles(size), _identity)


def _exact_ifft(x):
    size = x.shape[-1]
    return fixed_fft_inverse(x, size, _exact_twiddles(size), _identity)


class TestExactButterfly:
    """With exact twiddles and no quantization, the butterfly kernels every
    fixed-point FFT runs (:mod:`repro.simkernel.fft`) are the exact DFT."""

    @pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 64, 256])
    def test_matches_numpy(self, rng, size):
        x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        np.testing.assert_allclose(_exact_fft(x), np.fft.fft(x), atol=1e-10)

    def test_leading_axes_are_independent_transforms(self, rng):
        x = rng.standard_normal((3, 5, 16))
        np.testing.assert_allclose(_exact_fft(x), np.fft.fft(x, axis=-1),
                                   atol=1e-10)

    @pytest.mark.parametrize("size", [2, 32, 256])
    def test_inverse_round_trip(self, rng, size):
        x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        np.testing.assert_allclose(_exact_ifft(_exact_fft(x)), x, atol=1e-12)

    def test_inverse_matches_numpy(self, rng):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_allclose(_exact_ifft(x), np.fft.ifft(x), atol=1e-12)

    def test_parseval(self, rng):
        x = rng.standard_normal(64)
        spectrum = _exact_fft(x)
        assert np.sum(np.abs(spectrum) ** 2) / 64 == pytest.approx(
            np.sum(x ** 2))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=0, max_value=5))
    def test_linearity(self, log_size):
        size = 2 ** log_size
        rng = np.random.default_rng(log_size)
        a = rng.standard_normal(size)
        b = rng.standard_normal(size)
        np.testing.assert_allclose(_exact_fft(a + b),
                                   _exact_fft(a) + _exact_fft(b), atol=1e-10)


class TestFixedPointFft:
    def test_high_precision_approaches_exact(self, rng):
        x = rng.uniform(-0.9, 0.9, 16)
        engine = FixedPointFft(16, fractional_bits=24)
        np.testing.assert_allclose(engine.forward(x), np.fft.fft(x), atol=1e-4)

    def test_inverse_round_trip_error_small(self, rng):
        x = rng.uniform(-0.9, 0.9, 16)
        engine = FixedPointFft(16, fractional_bits=20)
        reconstructed = engine.inverse(engine.forward(x))
        assert np.max(np.abs(reconstructed - x)) < 1e-4

    def test_error_decreases_with_precision(self, rng):
        x = rng.uniform(-0.9, 0.9, 32)
        errors = []
        for bits in (8, 12, 16, 20):
            engine = FixedPointFft(32, fractional_bits=bits)
            errors.append(np.max(np.abs(engine.forward(x) - np.fft.fft(x))))
        assert errors[0] > errors[-1]
        assert all(e1 >= e2 * 0.5 for e1, e2 in zip(errors, errors[1:]))

    def test_outputs_on_quantization_grid(self, rng):
        x = rng.uniform(-0.9, 0.9, 16)
        engine = FixedPointFft(16, fractional_bits=8)
        spectrum = engine.forward(x)
        scaled = spectrum.real * 2 ** 8
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)

    def test_wrong_block_size_rejected(self):
        engine = FixedPointFft(16, fractional_bits=10)
        with pytest.raises(ValueError):
            engine.forward(np.ones(8))

    def test_non_power_of_two_size_rejected(self):
        with pytest.raises(ValueError):
            FixedPointFft(12, fractional_bits=10)

    def test_num_stages(self):
        assert FixedPointFft(16, 10).num_stages == 4
        assert FixedPointFft(256, 10).num_stages == 8

    def test_roundoff_noise_scales_with_step(self, rng):
        """The measured FFT roundoff noise should scale roughly as q^2."""
        x = rng.uniform(-0.9, 0.9, (50, 16))
        powers = []
        for bits in (10, 14):
            engine = FixedPointFft(16, fractional_bits=bits)
            errors = []
            for row in x:
                errors.append(engine.forward(row) - np.fft.fft(row))
            errors = np.concatenate(errors)
            powers.append(np.mean(np.abs(errors) ** 2))
        ratio = powers[0] / powers[1]
        assert 2 ** 7 < ratio < 2 ** 9

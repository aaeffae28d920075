"""Unit tests for the synthetic signal generators."""

import numpy as np
import pytest

from repro.data.signals import (
    SignalGenerator,
    ar1_process,
    chirp,
    colored_noise,
    multitone,
    uniform_white_noise,
)
from repro.psd.estimation import welch


class TestGenerators:
    def test_white_noise_bounds_and_length(self):
        x = uniform_white_noise(1000, amplitude=0.5, seed=0)
        assert len(x) == 1000
        assert np.max(np.abs(x)) <= 0.5

    def test_white_noise_reproducible(self):
        np.testing.assert_array_equal(uniform_white_noise(100, seed=3),
                                      uniform_white_noise(100, seed=3))

    def test_white_noise_different_seeds_differ(self):
        assert not np.array_equal(uniform_white_noise(100, seed=1),
                                  uniform_white_noise(100, seed=2))

    def test_colored_noise_is_lowpass(self):
        x = colored_noise(100_000, exponent=2.0, seed=0)
        psd = welch(x, 64)
        low = np.sum(psd.ac[:4]) + np.sum(psd.ac[-4:])
        assert low > 0.5 * psd.variance

    def test_white_exponent_zero_is_flat(self):
        x = colored_noise(100_000, exponent=0.0, seed=1)
        psd = welch(x, 32)
        assert np.max(psd.ac) < 3.0 * np.min(psd.ac[1:])

    def test_multitone_peaks_at_requested_frequencies(self):
        x = multitone(60_000, [0.25], amplitude=1.0, seed=0)
        psd = welch(x, 64)
        # 0.25 of Nyquist -> bin 8 of 64 (full circle).
        assert np.argmax(psd.ac[:32]) == 8

    def test_chirp_bounded(self):
        x = chirp(10_000, amplitude=0.7)
        assert np.max(np.abs(x)) <= 0.7 + 1e-12

    def test_ar1_is_correlated(self):
        x = ar1_process(50_000, pole=0.95, seed=0)
        lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert lag1 > 0.9

    def test_ar1_pole_validation(self):
        with pytest.raises(ValueError):
            ar1_process(100, pole=1.5)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            uniform_white_noise(0)
        with pytest.raises(ValueError):
            uniform_white_noise(10, amplitude=0.0)

    @pytest.mark.parametrize("generate", [
        lambda amplitude: uniform_white_noise(16, amplitude, seed=0),
        lambda amplitude: colored_noise(16, amplitude=amplitude, seed=0),
        lambda amplitude: multitone(16, [0.1], amplitude=amplitude, seed=0),
        lambda amplitude: chirp(16, amplitude=amplitude),
        lambda amplitude: ar1_process(16, amplitude=amplitude, seed=0),
    ], ids=["white", "colored", "multitone", "chirp", "ar1"])
    @pytest.mark.parametrize("amplitude", [
        float("nan"), float("inf"), -float("inf"), 1e308, -0.5])
    def test_non_finite_or_non_positive_amplitude_rejected(self, generate,
                                                           amplitude):
        # NaN passed the old `amplitude <= 0` test, and the uniform draw
        # over [-1e308, 1e308] overflows: each now raises a ValueError
        # instead of an OverflowError or an all-NaN / all-inf record.
        with pytest.raises(ValueError, match="amplitude"):
            generate(amplitude)

    def test_largest_drawable_amplitude_accepted(self):
        amplitude = 2.0 ** 1022
        x = uniform_white_noise(64, amplitude, seed=0)
        assert np.all(np.isfinite(x)) and np.max(np.abs(x)) <= amplitude


class TestSignalGenerator:
    def test_all_kinds_produce_requested_length(self):
        generator = SignalGenerator(seed=5)
        for kind in SignalGenerator.KINDS:
            assert len(generator.generate(kind, 500)) == 500

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SignalGenerator().generate("square", 100)

    def test_successive_calls_differ(self):
        generator = SignalGenerator(seed=5)
        a = generator.generate("white", 100)
        b = generator.generate("white", 100)
        assert not np.array_equal(a, b)

    def test_amplitude_respected(self):
        generator = SignalGenerator(seed=1)
        for kind in SignalGenerator.KINDS:
            x = generator.generate(kind, 2000, amplitude=0.25)
            assert np.max(np.abs(x)) <= 0.25 + 1e-9

"""Unit tests for the lifting-scheme 9/7 realization."""

import numpy as np
import pytest

from repro.data.images import natural_image
from repro.fixedpoint.quantizer import Quantizer
from repro.systems.dwt.codec import Dwt97Codec
from repro.systems.dwt.lifting import (
    LiftingDwt97Codec,
    lifting_analyze_1d,
    lifting_analyze_2d,
    lifting_synthesize_1d,
    lifting_synthesize_2d,
)


class TestPerfectReconstruction:
    def test_1d_round_trip(self, rng):
        x = rng.standard_normal(64)
        low, high = lifting_analyze_1d(x)
        np.testing.assert_allclose(lifting_synthesize_1d(low, high), x,
                                   atol=1e-12)

    def test_1d_band_lengths(self, rng):
        low, high = lifting_analyze_1d(rng.standard_normal(64))
        assert len(low) == 32 and len(high) == 32

    def test_odd_length_rejected(self, rng):
        with pytest.raises(ValueError):
            lifting_analyze_1d(rng.standard_normal(63))

    def test_2d_round_trip(self, small_image):
        subbands = lifting_analyze_2d(small_image)
        assert set(subbands) == {"ll", "lh", "hl", "hh"}
        reconstructed = lifting_synthesize_2d(subbands)
        np.testing.assert_allclose(reconstructed, small_image, atol=1e-12)

    def test_2d_requires_2d_input(self, rng):
        with pytest.raises(ValueError):
            lifting_analyze_2d(rng.standard_normal(16))

    def test_constant_signal_concentrates_in_lowband(self):
        low, high = lifting_analyze_1d(np.full(32, 0.5))
        assert np.max(np.abs(high)) < 1e-12

    def test_axis_argument(self, rng):
        image = rng.standard_normal((16, 32))
        low, high = lifting_analyze_1d(image, axis=0)
        assert low.shape == (8, 32)
        reconstructed = lifting_synthesize_1d(low, high, axis=0)
        np.testing.assert_allclose(reconstructed, image, atol=1e-12)


class TestSubbandAgreementWithFilterBank:
    def test_ll_band_content_matches_convolution_codec(self, small_image):
        """Lifting and filter-bank analysis extract the same LL content.

        The two factorizations use different per-band normalizations
        (lifting scale K versus the filter DC gains), so the comparison is
        on the *correlation* of the approximation band, not its scale.
        """
        from repro.systems.dwt.daubechies97 import daubechies_9_7_filters
        from repro.systems.dwt.dwt2d import analyze_2d

        lifting_ll = lifting_analyze_2d(small_image)["ll"].ravel()
        convolution_ll = analyze_2d(small_image,
                                    daubechies_9_7_filters())["ll"].ravel()
        correlation = np.corrcoef(lifting_ll, convolution_ll)[0, 1]
        assert correlation > 0.95

    def test_ll_band_dominates_in_both_realizations(self, small_image):
        """For natural images the LL band dominates in both realizations."""
        from repro.systems.dwt.daubechies97 import daubechies_9_7_filters
        from repro.systems.dwt.dwt2d import analyze_2d

        lifting_bands = lifting_analyze_2d(small_image)
        convolution_bands = analyze_2d(small_image, daubechies_9_7_filters())
        for bands in (lifting_bands, convolution_bands):
            ll_energy = float(np.sum(bands["ll"] ** 2))
            detail_energy = sum(float(np.sum(bands[k] ** 2))
                                for k in ("lh", "hl", "hh"))
            assert ll_energy > 3.0 * detail_energy


class TestLiftingCodec:
    def test_reference_is_identity(self, small_image):
        codec = LiftingDwt97Codec(fractional_bits=16, levels=2)
        np.testing.assert_allclose(codec.run_reference(small_image),
                                   small_image, atol=1e-10)

    def test_fixed_point_output_on_grid(self, small_image):
        codec = LiftingDwt97Codec(fractional_bits=10, levels=1)
        output = codec.run_fixed_point(small_image)
        scaled = output * 2 ** 10
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)

    def test_error_decreases_with_word_length(self, small_image):
        errors = []
        for bits in (8, 12, 16):
            codec = LiftingDwt97Codec(fractional_bits=bits, levels=2)
            errors.append(float(np.mean(codec.error_image(small_image) ** 2)))
        assert errors[0] > errors[1] > errors[2]

    def test_invalid_levels_rejected(self):
        with pytest.raises(ValueError):
            LiftingDwt97Codec(fractional_bits=10, levels=0)

    def test_quantized_analysis_through_quantizer_argument(self, small_image):
        quantizer = Quantizer(8)
        subbands = lifting_analyze_2d(small_image, quantizer=quantizer)
        scaled = subbands["ll"] * 2 ** 8
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)

    def test_noise_same_order_as_convolution_realization(self):
        """Both realizations of the transform have the same order of
        fixed-point noise (they quantize a comparable number of operations
        to the same precision); the exact values differ per image."""
        image = natural_image(32, seed=11)
        bits = 10
        lifting_error = np.mean(
            LiftingDwt97Codec(fractional_bits=bits, levels=2)
            .error_image(image) ** 2)
        convolution_error = np.mean(
            Dwt97Codec(fractional_bits=bits, levels=2)
            .error_image(image) ** 2)
        assert 0.25 < lifting_error / convolution_error < 4.0

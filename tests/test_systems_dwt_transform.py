"""Unit tests for the Daubechies 9/7 filters and transform engines."""

import numpy as np
import pytest

from repro.fixedpoint.quantizer import Quantizer
from repro.systems.dwt.daubechies97 import daubechies_9_7_filters
from repro.systems.dwt.dwt1d import analyze_1d, circular_filter, synthesize_1d
from repro.systems.dwt.dwt2d import (
    analyze_2d,
    analyze_multilevel,
    synthesize_2d,
    synthesize_multilevel,
)


class TestFilterBank:
    def test_lowpass_dc_gains(self):
        filters = daubechies_9_7_filters()
        assert np.sum(filters.analysis_lowpass) == pytest.approx(1.0, abs=1e-6)
        assert np.sum(filters.synthesis_lowpass) == pytest.approx(2.0, abs=1e-6)

    def test_highpass_filters_reject_dc(self):
        filters = daubechies_9_7_filters()
        assert np.sum(filters.analysis_highpass) == pytest.approx(0.0, abs=1e-6)
        assert np.sum(filters.synthesis_highpass) == pytest.approx(0.0, abs=1e-6)

    def test_filter_lengths(self):
        filters = daubechies_9_7_filters()
        assert len(filters.analysis_lowpass) == 9
        assert len(filters.analysis_highpass) == 7
        assert len(filters.synthesis_lowpass) == 7
        assert len(filters.synthesis_highpass) == 9

    def test_quantized_copy_on_grid(self):
        filters = daubechies_9_7_filters().quantized(8)
        scaled = filters.analysis_lowpass * 2 ** 8
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)


def _rolled_filter(x, taps, center, axis=-1, quantizer=None):
    """The per-tap ``np.roll`` formulation ``circular_filter`` replaced."""
    result = np.zeros_like(x)
    for k, coefficient in enumerate(taps):
        result += coefficient * np.roll(x, -(k - center), axis=axis)
    return result if quantizer is None else quantizer.quantize(result)


def _same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


class TestCircularFilter:
    @pytest.mark.parametrize("shape", [(12,), (6, 10), (3, 4, 5)])
    @pytest.mark.parametrize("num_taps", [1, 4, 9])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_bitwise_equal_to_rolled_taps(self, rng, shape, num_taps,
                                          quantized):
        x = rng.standard_normal(shape)
        taps = rng.standard_normal(num_taps)
        quantizer = Quantizer(6) if quantized else None
        for axis in range(-len(shape), len(shape)):
            for center in sorted({0, num_taps // 2, num_taps - 1}):
                assert _same_bits(
                    circular_filter(x, taps, center, axis, quantizer),
                    _rolled_filter(x, taps, center, axis, quantizer))

    @pytest.mark.parametrize("axis", [0, 1, -1, -2])
    def test_taps_longer_than_the_axis_wrap_like_roll(self, rng, axis):
        # 9 taps on a length-4 axis wrap the extension more than twice
        # (the 2-level codec reaches this on 8x8 images).
        x = rng.standard_normal((4, 4))
        taps = rng.standard_normal(9)
        for center in (0, 4, 8):
            assert _same_bits(circular_filter(x, taps, center, axis),
                              _rolled_filter(x, taps, center, axis))

    # A modulo-by-zero RuntimeWarning would fail the test.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape, axis", [((0,), 0), ((3, 0), 1),
                                             ((0, 5), 0), ((0, 5), 1)])
    def test_empty_axis_returns_empty(self, shape, axis):
        x = np.zeros(shape)
        result = circular_filter(x, np.ones(9), 4, axis=axis,
                                 quantizer=Quantizer(6))
        assert result.shape == shape

    def test_identity_filter(self, rng):
        x = rng.standard_normal(16)
        np.testing.assert_allclose(circular_filter(x, np.array([1.0]), 0), x)

    def test_centered_delay_is_roll(self, rng):
        x = rng.standard_normal(16)
        # taps [0, 1] with center 0 -> y[n] = x[n+1] is a left roll.
        result = circular_filter(x, np.array([0.0, 1.0]), 0)
        np.testing.assert_allclose(result, np.roll(x, -1))

    def test_2d_filtering_along_each_axis(self, rng):
        image = rng.standard_normal((8, 8))
        rows = circular_filter(image, np.array([0.5, 0.5]), 0, axis=1)
        cols = circular_filter(image, np.array([0.5, 0.5]), 0, axis=0)
        assert rows.shape == image.shape
        assert not np.allclose(rows, cols)

    def test_quantizer_applied(self, rng):
        x = rng.uniform(-1, 1, 32)
        quantizer = Quantizer(4)
        y = circular_filter(x, np.array([0.3, 0.7]), 0, quantizer=quantizer)
        scaled = y * 2 ** 4
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)


class TestPerfectReconstruction1d:
    def test_random_signal_reconstructed(self, rng):
        filters = daubechies_9_7_filters()
        x = rng.standard_normal(64)
        low, high = analyze_1d(x, filters)
        reconstructed = synthesize_1d(low, high, filters)
        np.testing.assert_allclose(reconstructed, x, atol=1e-10)

    def test_band_lengths(self, rng):
        filters = daubechies_9_7_filters()
        x = rng.standard_normal(64)
        low, high = analyze_1d(x, filters)
        assert len(low) == 32 and len(high) == 32

    def test_constant_signal_goes_to_lowband(self):
        filters = daubechies_9_7_filters()
        x = np.full(32, 0.5)
        low, high = analyze_1d(x, filters)
        assert np.max(np.abs(high)) < 1e-10
        np.testing.assert_allclose(synthesize_1d(low, high, filters), x,
                                   atol=1e-12)

    def test_2d_rows_and_columns(self, rng):
        filters = daubechies_9_7_filters()
        image = rng.standard_normal((32, 32))
        low, high = analyze_1d(image, filters, axis=0)
        reconstructed = synthesize_1d(low, high, filters, axis=0)
        np.testing.assert_allclose(reconstructed, image, atol=1e-10)


class TestPerfectReconstruction2d:
    def test_one_level(self, small_image):
        filters = daubechies_9_7_filters()
        subbands = analyze_2d(small_image, filters)
        assert set(subbands) == {"ll", "lh", "hl", "hh"}
        assert subbands["ll"].shape == (16, 16)
        reconstructed = synthesize_2d(subbands, filters)
        np.testing.assert_allclose(reconstructed, small_image, atol=1e-10)

    def test_two_levels(self, small_image):
        filters = daubechies_9_7_filters()
        pyramid = analyze_multilevel(small_image, filters, 2)
        assert len(pyramid["levels"]) == 2
        assert pyramid["ll"].shape == (8, 8)
        reconstructed = synthesize_multilevel(pyramid, filters)
        np.testing.assert_allclose(reconstructed, small_image, atol=1e-10)

    def test_fixed_point_pyramid_structure(self, small_image):
        """With a quantizer every band lands on its grid and stays within
        a few steps of the double-precision pyramid."""
        filters = daubechies_9_7_filters()
        quantizer = Quantizer(12)
        fixed = analyze_multilevel(quantizer.quantize(small_image), filters,
                                   2, quantizer=quantizer)
        exact = analyze_multilevel(small_image, filters, 2)
        assert len(fixed["levels"]) == 2
        assert fixed["ll"].shape == (8, 8)
        bands = [(fixed["ll"], exact["ll"])] + [
            (level[name], reference[name])
            for level, reference in zip(fixed["levels"], exact["levels"])
            for name in ("lh", "hl", "hh")]
        for band, reference in bands:
            assert band.shape == reference.shape
            np.testing.assert_array_equal(band, quantizer.quantize(band))
            assert np.max(np.abs(band - reference)) < 4 * 2.0 ** -12

    def test_three_levels(self, rng):
        from repro.data.images import natural_image
        filters = daubechies_9_7_filters()
        image = natural_image(64, seed=2)
        pyramid = analyze_multilevel(image, filters, 3)
        reconstructed = synthesize_multilevel(pyramid, filters)
        np.testing.assert_allclose(reconstructed, image, atol=1e-9)

    def test_odd_sizes_rejected(self, rng):
        filters = daubechies_9_7_filters()
        with pytest.raises(ValueError):
            analyze_2d(rng.standard_normal((15, 16)), filters)

    def test_non_2d_rejected(self, rng):
        filters = daubechies_9_7_filters()
        with pytest.raises(ValueError):
            analyze_2d(rng.standard_normal(16), filters)

    def test_invalid_level_count_rejected(self, small_image):
        filters = daubechies_9_7_filters()
        with pytest.raises(ValueError):
            analyze_multilevel(small_image, filters, 0)

    def test_energy_concentrated_in_ll(self, small_image):
        """For natural images the LL band holds most of the energy."""
        filters = daubechies_9_7_filters()
        subbands = analyze_2d(small_image, filters)
        ll_energy = np.sum(subbands["ll"] ** 2)
        detail_energy = sum(np.sum(subbands[k] ** 2)
                            for k in ("lh", "hl", "hh"))
        assert ll_energy > 5 * detail_energy

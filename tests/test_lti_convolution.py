"""Unit tests for overlap-save convolution."""

import numpy as np
import pytest

from repro.lti.convolution import overlap_save


class TestOverlapSave:
    @pytest.mark.parametrize("fft_size", [16, 32, 64])
    def test_matches_direct_convolution(self, rng, fft_size):
        x = rng.standard_normal(500)
        h = rng.standard_normal(9)
        expected = np.convolve(x, h)[:500]
        np.testing.assert_allclose(overlap_save(x, h, fft_size), expected,
                                   atol=1e-10)

    def test_filter_longer_than_fft_rejected(self):
        with pytest.raises(ValueError):
            overlap_save(np.ones(100), np.ones(20), 16)

    def test_short_input(self, rng):
        x = rng.standard_normal(5)
        h = rng.standard_normal(3)
        np.testing.assert_allclose(overlap_save(x, h, 8),
                                   np.convolve(x, h)[:5], atol=1e-12)

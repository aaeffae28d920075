"""Unit tests for overlap-save convolution."""

import numpy as np
import pytest

from repro.lti.convolution import overlap_save, overlap_save_reference


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

    @pytest.mark.parametrize("samples", [35, 36, 37])
    def test_lengths_around_a_whole_number_of_blocks(self, rng, samples):
        # 5 taps in a 16-point FFT advance 12 samples a block: 36 samples
        # fill three blocks exactly, 35 and 37 end inside one.  The
        # streamed path and the per-block loop keep len(x) samples, equal
        # bit for bit.
        x = rng.standard_normal(samples)
        h = rng.standard_normal(5)
        fast = overlap_save(x, h, 16)
        slow = overlap_save_reference(x, h, 16)
        assert fast.shape == slow.shape == (samples,)
        assert fast.tobytes() == slow.tobytes()
        np.testing.assert_allclose(fast, np.convolve(x, h)[:samples],
                                   atol=1e-12)

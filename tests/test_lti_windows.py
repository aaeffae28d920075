"""Unit tests for window functions."""

import numpy as np
import pytest

from repro.lti.windows import hamming, hann

WINDOWS = (hamming, hann)


class TestIndividualWindows:
    def test_hamming_endpoints(self):
        window = hamming(11)
        assert window[0] == pytest.approx(0.08, abs=1e-12)
        assert window[-1] == pytest.approx(0.08, abs=1e-12)
        assert window[5] == pytest.approx(1.0)

    def test_hann_endpoints_are_zero(self):
        window = hann(9)
        assert window[0] == pytest.approx(0.0, abs=1e-15)
        assert window[-1] == pytest.approx(0.0, abs=1e-15)

    def test_all_windows_symmetric(self):
        for window_of in WINDOWS:
            window = window_of(17)
            np.testing.assert_allclose(window, window[::-1], atol=1e-12)

    def test_all_windows_bounded_by_one(self):
        for window_of in WINDOWS:
            window = window_of(32)
            assert np.max(window) <= 1.0 + 1e-12
            assert np.min(window) >= -1e-12

    def test_length_one_window(self):
        for window_of in WINDOWS:
            np.testing.assert_array_equal(window_of(1), [1.0])

    def test_zero_length_rejected(self):
        for window_of in WINDOWS:
            with pytest.raises(ValueError):
                window_of(0)

    @pytest.mark.parametrize("n", [2, 3, 4, 16, 17, 1024])
    @pytest.mark.parametrize("window_of", WINDOWS, ids=["hamming", "hann"])
    def test_symmetric_and_bounded_at_every_length(self, window_of, n):
        window = window_of(n)
        assert window.shape == (n,)
        np.testing.assert_allclose(window, window[::-1], atol=1e-12)
        assert np.all((window >= -1e-12) & (window <= 1.0 + 1e-12))


class TestHannPower:
    """The mean square of the Hann window scales every Welch periodogram."""

    @pytest.mark.parametrize("n", [4, 5, 16, 17, 1023, 1024])
    def test_mean_square_is_three_eighths_of_the_open_length(self, n):
        # sum of (0.5 - 0.5 cos)^2 over the n - 1 periodic points is
        # 3 (n - 1) / 8; the repeated end point adds a zero.
        assert np.mean(hann(n) ** 2) == pytest.approx(
            3.0 * (n - 1) / (8.0 * n), rel=1e-12)

    def test_three_points_are_one_impulse(self):
        np.testing.assert_allclose(hann(3), [0.0, 1.0, 0.0], atol=1e-15)

    def test_two_points_have_no_power(self):
        # Why Welch rejects a 2-bin estimate.
        assert np.max(np.abs(hann(2))) < 1e-15

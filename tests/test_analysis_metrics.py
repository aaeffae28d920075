"""Unit tests for the accuracy metrics."""

import numpy as np
import pytest

from repro.analysis.metrics import (
    ed_deviation,
    is_sub_one_bit,
    noise_power,
)


class TestBasicMetrics:
    def test_noise_power(self):
        assert noise_power(np.array([1.0, -1.0, 1.0])) == pytest.approx(1.0)

    def test_noise_power_empty_rejected(self):
        with pytest.raises(ValueError):
            noise_power(np.array([]))


class TestEdDeviation:
    def test_exact_estimate_gives_zero(self):
        assert ed_deviation(1e-6, 1e-6) == 0.0

    def test_underestimate_is_positive(self):
        assert ed_deviation(2.0, 1.0) == pytest.approx(0.5)

    def test_overestimate_is_negative(self):
        assert ed_deviation(1.0, 2.0) == pytest.approx(-1.0)

    def test_non_positive_simulation_rejected(self):
        with pytest.raises(ValueError):
            ed_deviation(0.0, 1.0)


class TestOneBitBand:
    def test_exact_is_sub_one_bit(self):
        assert is_sub_one_bit(0.0)

    def test_factor_two_is_sub_one_bit(self):
        # Estimate half / double the simulated power -> within one bit.
        assert is_sub_one_bit(ed_deviation(1.0, 0.5))
        assert is_sub_one_bit(ed_deviation(1.0, 2.0))

    def test_factor_five_is_over_one_bit(self):
        assert not is_sub_one_bit(ed_deviation(1.0, 5.0))
        assert not is_sub_one_bit(ed_deviation(5.0, 1.0))

    def test_band_boundaries(self):
        # One bit corresponds to a power factor of exactly 4.
        assert not is_sub_one_bit(ed_deviation(1.0, 4.0))       # Ed = -300 %
        assert not is_sub_one_bit(ed_deviation(4.0, 1.0))       # Ed = +75 %
        assert is_sub_one_bit(ed_deviation(1.0, 3.99))
        assert is_sub_one_bit(ed_deviation(3.99, 1.0))

    def test_band_endpoints_pin_factor_of_four(self):
        # With Ed = (sim - est)/sim the one-bit band is (-300 %, +75 %):
        # the 4x over-estimate sits exactly on the lower endpoint, the 4x
        # under-estimate exactly on the upper one, both excluded (open
        # interval).
        assert ed_deviation(1.0, 4.0) == pytest.approx(-3.0)
        assert ed_deviation(4.0, 1.0) == pytest.approx(0.75)
        eps = 1e-12
        assert is_sub_one_bit(-3.0 + eps) and not is_sub_one_bit(-3.0)
        assert is_sub_one_bit(0.75 - eps) and not is_sub_one_bit(0.75)

"""Unit and property tests for :class:`repro.psd.spectrum.DiscretePsd`,
unstacked and stacked along a leading configuration axis."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.fixedpoint.noise_model import NoiseStats
from repro.lti.fir_design import design_fir_lowpass
from repro.lti.transfer_function import TransferFunction
from repro.psd.spectrum import DiscretePsd


class TestConstruction:
    def test_zero(self):
        psd = DiscretePsd.zero(16)
        assert psd.total_power == 0.0
        assert psd.n_bins == 16

    def test_white_spreads_variance_uniformly(self):
        psd = DiscretePsd.white(NoiseStats(mean=0.1, variance=1.6), 32)
        np.testing.assert_allclose(psd.ac, 0.05)
        assert psd.mean == pytest.approx(0.1)

    def test_total_power_combines_mean_and_variance(self):
        psd = DiscretePsd.from_moments(mean=0.5, variance=2.0, n_bins=8)
        assert psd.total_power == pytest.approx(2.25)

    def test_values_property_adds_mean_square_to_dc(self):
        psd = DiscretePsd.from_moments(mean=0.5, variance=0.8, n_bins=8)
        assert psd.values[0] == pytest.approx(0.1 + 0.25)
        assert np.sum(psd.values) == pytest.approx(psd.total_power)

    def test_negative_bins_rejected(self):
        with pytest.raises(ValueError):
            DiscretePsd(np.array([0.1, -0.2]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DiscretePsd(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DiscretePsd(np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            DiscretePsd(np.array([0.5, 1.0]), mean=bad)
        with pytest.raises(ValueError, match="finite"):
            DiscretePsd(np.ones((2, 4)), mean=np.array([0.0, bad]))


class TestAlgebra:
    def test_addition_sums_means_and_bins(self):
        a = DiscretePsd.from_moments(0.1, 1.0, 8)
        b = DiscretePsd.from_moments(-0.3, 2.0, 8)
        total = a + b
        assert total.mean == pytest.approx(-0.2)
        assert total.variance == pytest.approx(3.0)

    def test_addition_requires_same_bins(self):
        with pytest.raises(ValueError):
            DiscretePsd.zero(8) + DiscretePsd.zero(16)

    def test_scaling_squares_the_gain_for_power(self):
        psd = DiscretePsd.from_moments(0.5, 1.0, 8).scaled(-2.0)
        assert psd.mean == pytest.approx(-1.0)
        assert psd.variance == pytest.approx(4.0)

    def test_mul_operator(self):
        psd = DiscretePsd.from_moments(0.0, 1.0, 8)
        assert (3.0 * psd).variance == pytest.approx(9.0)

    def test_means_can_cancel(self):
        a = DiscretePsd.from_moments(0.5, 0.0, 8)
        b = DiscretePsd.from_moments(-0.5, 0.0, 8)
        assert (a + b).total_power == pytest.approx(0.0)


class TestFiltering:
    def test_white_noise_through_filter_gets_energy_gain(self):
        taps = design_fir_lowpass(31, 0.4)
        tf = TransferFunction.fir(taps)
        psd = DiscretePsd.from_moments(0.0, 1.0, 512)
        filtered = psd.filtered(tf.frequency_response(512))
        assert filtered.variance == pytest.approx(tf.energy(), rel=1e-6)

    def test_mean_follows_dc_gain_with_sign(self):
        tf = TransferFunction.fir([-0.5, -0.5])
        psd = DiscretePsd.from_moments(0.4, 1.0, 64)
        filtered = psd.filtered(tf.frequency_response(64))
        assert filtered.mean == pytest.approx(-0.4)

    def test_wrong_response_length_rejected(self):
        psd = DiscretePsd.zero(16)
        with pytest.raises(ValueError):
            psd.filtered(np.ones(8))

    def test_cascaded_filtering_composes(self):
        taps_a = design_fir_lowpass(15, 0.6)
        taps_b = design_fir_lowpass(15, 0.3)
        response_a = TransferFunction.fir(taps_a).frequency_response(256)
        response_b = TransferFunction.fir(taps_b).frequency_response(256)
        psd = DiscretePsd.from_moments(0.0, 1.0, 256)
        one_shot = psd.filtered(response_a * response_b)
        two_steps = psd.filtered(response_a).filtered(response_b)
        assert one_shot.allclose(two_steps, rtol=1e-9)


class TestMultirate:
    def test_downsampling_preserves_power(self):
        psd = DiscretePsd.from_moments(0.2, 1.5, 64)
        folded = psd.downsampled(2)
        assert folded.n_bins == 32
        assert folded.variance == pytest.approx(1.5)
        assert folded.mean == pytest.approx(0.2)

    def test_upsampling_divides_power_and_mean(self):
        psd = DiscretePsd.from_moments(0.2, 1.5, 32)
        imaged = psd.upsampled(2)
        assert imaged.n_bins == 64
        assert imaged.variance == pytest.approx(0.75)
        assert imaged.mean == pytest.approx(0.1)

    def test_down_then_up_power(self):
        psd = DiscretePsd.from_moments(0.0, 1.0, 64)
        assert psd.downsampled(2).upsampled(2).variance == pytest.approx(0.5)


class TestProperties:
    @given(st.integers(min_value=2, max_value=256),
           st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=-3.0, max_value=3.0))
    def test_white_total_power_exact(self, n_bins, variance, mean):
        psd = DiscretePsd.from_moments(mean, variance, n_bins)
        assert psd.total_power == pytest.approx(mean ** 2 + variance, rel=1e-9)

    @given(st.integers(min_value=1, max_value=5),
           st.floats(min_value=0.01, max_value=5.0))
    def test_repeated_up_down_power_bookkeeping(self, rounds, variance):
        psd = DiscretePsd.from_moments(0.0, variance, 64)
        expected = variance
        for _ in range(rounds):
            psd = psd.downsampled(2).upsampled(2)
            expected /= 2.0
        assert psd.variance == pytest.approx(expected, rel=1e-9)


def _bitwise(a, b) -> bool:
    """Equal values *and* equal zero signs (``-0.0`` is not ``+0.0``)."""
    a, b = np.asarray(a), np.asarray(b)
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _stack() -> DiscretePsd:
    """Three configs on 16 bins; the first mean is a negative zero."""
    ac = np.random.default_rng(7).uniform(0.0, 1.0, (3, 16))
    return DiscretePsd(ac, np.array([-0.0, 0.25, -0.5]))


def _rows(stack: DiscretePsd) -> list:
    return [DiscretePsd(stack.ac[k], stack.mean[k])
            for k in range(stack.size)]


def _assert_row_by_row(stacked: DiscretePsd, rows: list) -> None:
    assert stacked.stacked and stacked.size == len(rows)
    for k, row in enumerate(rows):
        assert not row.stacked
        assert _bitwise(stacked.ac[k], row.ac), k
        assert _bitwise(stacked.mean[k], row.mean), k


_RESPONSE = TransferFunction.fir([-0.5, 0.25, 0.125]).frequency_response(16)

#: Every operation of the algebra, applied to a stack and to its rows.
_OPERATIONS = {
    "scaled(1.0)": lambda psd: psd.scaled(1.0),
    "scaled(-1.0)": lambda psd: psd.scaled(-1.0),
    "scaled(0.5)": lambda psd: psd.scaled(0.5),
    "mul": lambda psd: 3.0 * psd,
    "add": lambda psd: psd + psd.scaled(-2.0),
    "filtered": lambda psd: psd.filtered(_RESPONSE),
    "downsampled": lambda psd: psd.downsampled(2),
    "upsampled": lambda psd: psd.upsampled(4),
}


class TestStacked:
    """A stacked PSD is row ``k`` for row ``k``, bit for bit."""

    @pytest.mark.parametrize("name", sorted(_OPERATIONS))
    def test_operation_row_by_row(self, name):
        operation = _OPERATIONS[name]
        stack = _stack()
        _assert_row_by_row(operation(stack),
                           [operation(row) for row in _rows(stack)])

    def test_filtered_per_row_response(self):
        stack = _stack()
        responses = np.stack([
            TransferFunction.fir(taps).frequency_response(16)
            for taps in ([1.0, -1.0], [0.5, 0.5], [-0.25, 0.75, 0.5])])
        _assert_row_by_row(stack.filtered(responses),
                           [row.filtered(response) for row, response
                            in zip(_rows(stack), responses)])

    def test_white_and_zero_row_by_row(self):
        means = np.array([-0.0, 0.5, -0.125])
        variances = np.array([1.0, 0.0, 3.0])
        _assert_row_by_row(
            DiscretePsd.from_moments(means, variances, 8),
            [DiscretePsd.white(NoiseStats(mean, variance), 8)
             for mean, variance in zip(means, variances)])
        _assert_row_by_row(DiscretePsd.zero(8, 3),
                           [DiscretePsd.zero(8)] * 3)

    def test_summaries_row_by_row(self):
        stack = _stack()
        for k, row in enumerate(_rows(stack)):
            assert _bitwise(stack.variance[k], row.variance)
            assert _bitwise(stack.total_power[k], row.total_power)
            assert _bitwise(stack.values[k], row.values)

    def test_unstacked_summaries_stay_floats(self):
        row = _stack().select(2)
        assert type(row.mean) is float and type(row.variance) is float
        assert type(row.total_power) is float

    def test_select_returns_the_row(self):
        stack = _stack()
        for k, row in enumerate(_rows(stack)):
            selected = stack.select(k)
            assert _bitwise(selected.ac, row.ac)
            assert _bitwise(selected.mean, row.mean)
        with pytest.raises(ValueError):
            stack.select(0).select(0)

    def test_white_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            DiscretePsd.white(NoiseStats(0.0, -1.0), 8)
        with pytest.raises(ValueError):
            DiscretePsd.from_moments(np.zeros(2), np.array([1.0, -1.0]), 8)

    def test_white_matches_scalar_white(self):
        stack = DiscretePsd.from_moments(np.array([0.5, 0.0]),
                                         np.array([1.0, 2.0]), 8)
        scalar = DiscretePsd.white(NoiseStats(0.5, 1.0), 8)
        np.testing.assert_array_equal(stack.ac[0], scalar.ac)
        assert stack.mean[0] == scalar.mean

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DiscretePsd(np.zeros(8), np.zeros(1))
        with pytest.raises(ValueError):
            DiscretePsd(np.zeros((2, 8)), np.zeros(3))
        with pytest.raises(ValueError):
            DiscretePsd(np.zeros((2, 3, 8)), np.zeros(2))
        with pytest.raises(ValueError):
            DiscretePsd.zero(8, 0)

    def test_mismatched_addition_rejected(self):
        with pytest.raises(ValueError):
            DiscretePsd.zero(8, 2) + DiscretePsd.zero(16, 2)
        with pytest.raises(ValueError):
            DiscretePsd.zero(8, 2) + DiscretePsd.zero(8, 3)
        with pytest.raises(ValueError):
            DiscretePsd.zero(8, 2) + DiscretePsd.zero(8)

    def test_filtered_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            DiscretePsd.zero(8, 2).filtered(np.ones(4))
        with pytest.raises(ValueError):
            DiscretePsd.zero(8, 2).filtered(np.ones((3, 8)))
        with pytest.raises(ValueError):
            DiscretePsd.zero(8).filtered(np.ones((2, 8)))

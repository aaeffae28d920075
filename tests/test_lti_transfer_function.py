"""Unit tests for :class:`repro.lti.transfer_function.TransferFunction`."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.lti.transfer_function import TransferFunction
from repro.systems.filter_bank import generate_iir_bank


class TestConstruction:
    def test_denominator_normalized(self):
        tf = TransferFunction([2.0, 4.0], [2.0, 1.0])
        np.testing.assert_allclose(tf.b, [1.0, 2.0])
        np.testing.assert_allclose(tf.a, [1.0, 0.5])

    def test_zero_leading_denominator_rejected(self):
        with pytest.raises(ValueError):
            TransferFunction([1.0], [0.0, 1.0])

    def test_identity_and_gain(self):
        assert TransferFunction.identity().dc_gain() == 1.0
        assert TransferFunction.gain(3.0).dc_gain() == 3.0

    def test_delay(self):
        tf = TransferFunction.delay(3)
        np.testing.assert_array_equal(tf.impulse_response(5), [0, 0, 0, 1, 0])

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            TransferFunction.delay(-1)


class TestResponses:
    def test_fir_impulse_response_is_taps(self):
        taps = [1.0, -0.5, 0.25]
        np.testing.assert_array_equal(
            TransferFunction.fir(taps).impulse_response(), taps)

    def test_iir_impulse_response_geometric(self):
        tf = TransferFunction([1.0], [1.0, -0.5])
        h = tf.impulse_response(6)
        np.testing.assert_allclose(h, 0.5 ** np.arange(6))

    def test_adaptive_impulse_length_captures_energy(self):
        tf = TransferFunction([1.0], [1.0, -0.9])
        energy = tf.energy()
        assert energy == pytest.approx(1.0 / (1.0 - 0.81), rel=1e-6)

    def test_frequency_response_dc_equals_coefficient_sum(self):
        tf = TransferFunction.fir([0.25, 0.5, 0.25])
        response = tf.frequency_response(64)
        assert response[0] == pytest.approx(1.0)

    def test_frequency_response_parseval(self):
        taps = np.array([0.3, -0.2, 0.5, 0.1])
        tf = TransferFunction.fir(taps)
        mean_mag2 = np.mean(np.abs(tf.frequency_response(256)) ** 2)
        assert mean_mag2 == pytest.approx(np.sum(taps ** 2), rel=1e-9)

    def test_filter_matches_convolution_for_fir(self, rng):
        taps = rng.standard_normal(8)
        x = rng.standard_normal(100)
        expected = np.convolve(x, taps)[:100]
        np.testing.assert_allclose(TransferFunction.fir(taps).filter(x), expected)

    def test_filter_matches_scipy_for_iir(self, rng):
        from scipy.signal import lfilter
        b, a = [1.0, 0.3], [1.0, -0.6, 0.08]
        x = rng.standard_normal(64)
        np.testing.assert_allclose(TransferFunction(b, a).filter(x),
                                   lfilter(b, a, x))


class TestLfilterOracle:
    """``filter`` is the bit-true kernel's direct-form-I recursion without
    rounding; scipy's ``lfilter`` (transposed direct form II) is its
    oracle, within a fixed 1e-12 of the output's peak magnitude."""

    @pytest.mark.parametrize("samples", [3000, 7], ids=["1-D", "short"])
    def test_iir_bank_designs_of_orders_2_to_10(self, rng, samples):
        # "short": fewer samples than most delay lines hold.
        from scipy.signal import lfilter
        x = rng.uniform(-0.9, 0.9, samples)
        orders = set()
        for entry in generate_iir_bank(27):
            tf = TransferFunction(entry.b, entry.a)
            orders.add(len(tf.a) - 1)
            expected = lfilter(tf.b, tf.a, x)
            deviation = np.max(np.abs(tf.filter(x) - expected))
            assert deviation <= 1e-12 * np.max(np.abs(expected)), entry.name
        assert orders == set(range(2, 11))


class TestStability:
    def test_fir_always_stable(self):
        assert TransferFunction.fir([1.0, 2.0, 3.0]).is_stable()

    def test_stable_pole(self):
        assert TransferFunction([1.0], [1.0, -0.9]).is_stable()

    def test_unstable_pole(self):
        assert not TransferFunction([1.0], [1.0, -1.1]).is_stable()

    def test_poles_and_zeros(self):
        tf = TransferFunction([1.0, -0.25], [1.0, -0.5])
        np.testing.assert_allclose(tf.zeros(), [0.25])
        np.testing.assert_allclose(tf.poles(), [0.5])


class TestComposition:
    def test_cascade_multiplies_responses(self):
        a = TransferFunction.fir([1.0, 1.0])
        b = TransferFunction.fir([1.0, -1.0])
        cascade = a.cascade(b)
        np.testing.assert_allclose(cascade.b, [1.0, 0.0, -1.0])

    def test_mul_operator(self):
        a = TransferFunction.fir([0.5, 0.5])
        assert (a * 2.0).dc_gain() == pytest.approx(2.0)
        assert (a * a).order == 2

    def test_parallel_adds_responses(self):
        a = TransferFunction.fir([1.0])
        b = TransferFunction.delay(1)
        parallel = a.parallel(b)
        np.testing.assert_allclose(parallel.impulse_response(3), [1, 1, 0])

    def test_add_operator(self):
        a = TransferFunction.fir([1.0])
        combined = a + a
        assert combined.dc_gain() == pytest.approx(2.0)

    def test_cascade_of_iir_keeps_poles(self):
        a = TransferFunction([1.0], [1.0, -0.5])
        b = TransferFunction([1.0], [1.0, -0.25])
        cascade = a.cascade(b)
        np.testing.assert_allclose(sorted(np.abs(cascade.poles())),
                                   [0.25, 0.5])

    @given(st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False),
                    min_size=1, max_size=6),
           st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False),
                    min_size=1, max_size=6))
    def test_parallel_commutes(self, taps_a, taps_b):
        a = TransferFunction.fir(taps_a)
        b = TransferFunction.fir(taps_b)
        left = a.parallel(b).impulse_response(10)
        right = b.parallel(a).impulse_response(10)
        np.testing.assert_allclose(left, right, atol=1e-12)


class TestScalarSummaries:
    def test_energy_of_fir(self):
        taps = np.array([0.5, 0.25, -0.125])
        assert TransferFunction.fir(taps).energy() == pytest.approx(
            float(np.sum(taps ** 2)))

    def test_coefficient_sum_matches_dc_gain(self):
        tf = TransferFunction([1.0, 0.5], [1.0, -0.25])
        assert tf.coefficient_sum() == pytest.approx(tf.dc_gain())

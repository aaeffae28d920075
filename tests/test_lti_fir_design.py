"""Unit tests for the windowed-sinc FIR designs."""

import numpy as np
import pytest

from repro.lti.fir_design import (
    design_fir_bandpass,
    design_fir_highpass,
    design_fir_lowpass,
)
from repro.lti.transfer_function import TransferFunction


def _gain_at(taps, frequency):
    """Magnitude response at a normalized frequency (1.0 = Nyquist)."""
    response = TransferFunction.fir(taps).frequency_response(1024)
    index = int(round(frequency * 512))
    return abs(response[index])


class TestLowpass:
    def test_unit_dc_gain(self):
        taps = design_fir_lowpass(33, 0.3)
        assert np.sum(taps) == pytest.approx(1.0)

    def test_stopband_attenuation(self):
        taps = design_fir_lowpass(65, 0.3)
        assert _gain_at(taps, 0.8) < 0.01

    def test_passband_flatness(self):
        taps = design_fir_lowpass(65, 0.5)
        assert _gain_at(taps, 0.1) == pytest.approx(1.0, abs=0.02)

    def test_symmetric_linear_phase(self):
        taps = design_fir_lowpass(32, 0.4)
        np.testing.assert_allclose(taps, taps[::-1], atol=1e-12)

    def test_invalid_cutoff_rejected(self):
        with pytest.raises(ValueError):
            design_fir_lowpass(16, 1.5)
        with pytest.raises(ValueError):
            design_fir_lowpass(16, 0.0)

    def test_too_few_taps_rejected(self):
        with pytest.raises(ValueError):
            design_fir_lowpass(1, 0.3)


class TestHighpass:
    def test_unit_nyquist_gain(self):
        taps = design_fir_highpass(33, 0.4)
        assert _gain_at(taps, 1.0 - 1 / 512) == pytest.approx(1.0, abs=0.02)

    def test_dc_rejection(self):
        taps = design_fir_highpass(65, 0.4)
        assert abs(np.sum(taps)) < 0.01

    def test_even_length_promoted_to_odd(self):
        taps = design_fir_highpass(16, 0.4)
        assert len(taps) == 17

    def test_symmetric_linear_phase(self):
        taps = design_fir_highpass(33, 0.4)
        np.testing.assert_allclose(taps, taps[::-1], atol=1e-12)


class TestBandpass:
    def test_center_gain(self):
        taps = design_fir_bandpass(65, 0.3, 0.6)
        assert _gain_at(taps, 0.45) == pytest.approx(1.0, abs=0.05)

    def test_band_edges_reject_out_of_band(self):
        taps = design_fir_bandpass(97, 0.4, 0.6)
        assert _gain_at(taps, 0.05) < 0.02
        assert _gain_at(taps, 0.95) < 0.02

    def test_symmetric_linear_phase(self):
        taps = design_fir_bandpass(64, 0.3, 0.6)
        np.testing.assert_allclose(taps, taps[::-1], atol=1e-12)

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            design_fir_bandpass(32, 0.6, 0.4)

    @pytest.mark.parametrize("low,high", [(0.0, 0.4), (0.4, 1.0)])
    def test_band_edge_at_dc_or_nyquist_rejected(self, low, high):
        with pytest.raises(ValueError, match="band edges"):
            design_fir_bandpass(33, low, high)


def _hamming_windowed_ideal(num_taps, lowpass_cutoffs):
    """Sum of signed ideal low-pass responses, times a Hamming window."""
    n = np.arange(num_taps)
    k = n - (num_taps - 1) / 2.0
    ideal = sum(sign * cutoff * np.sinc(cutoff * k)
                for sign, cutoff in lowpass_cutoffs)
    return ideal * (0.54 - 0.46 * np.cos(2.0 * np.pi * n / (num_taps - 1)))


def _unit_gain_at(taps, frequency):
    n = np.arange(len(taps))
    return taps / abs(np.sum(taps * np.exp(-1j * np.pi * frequency * n)))


class TestHammingWindow:
    """Every design windows its ideal response with a Hamming window."""

    @pytest.mark.parametrize("num_taps", [16, 33, 64, 127])
    def test_lowpass(self, num_taps):
        expected = _unit_gain_at(
            _hamming_windowed_ideal(num_taps, [(1, 0.35)]), 0.0)
        np.testing.assert_allclose(design_fir_lowpass(num_taps, 0.35),
                                   expected, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("num_taps", [16, 33, 64, 127])
    def test_highpass(self, num_taps):
        length = num_taps + 1 - num_taps % 2
        taps = -_hamming_windowed_ideal(length, [(1, 0.35)])
        taps[(length - 1) // 2] += 1.0
        np.testing.assert_allclose(design_fir_highpass(num_taps, 0.35),
                                   _unit_gain_at(taps, 1.0),
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("num_taps", [16, 33, 64, 127])
    def test_bandpass(self, num_taps):
        expected = _unit_gain_at(
            _hamming_windowed_ideal(num_taps, [(1, 0.6), (-1, 0.3)]), 0.45)
        np.testing.assert_allclose(design_fir_bandpass(num_taps, 0.3, 0.6),
                                   expected, rtol=1e-12, atol=1e-15)

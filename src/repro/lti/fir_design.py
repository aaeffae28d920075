"""Windowed-sinc FIR filter design.

The paper's first experiment (Table I) evaluates the proposed method on a
bank of 147 FIR filters with low-pass, high-pass and band-pass
functionalities and between 16 and 128 taps.  This module provides the
designs used to generate that bank.

All cutoff frequencies are normalized to the Nyquist frequency, i.e. a
value of 1.0 corresponds to half the sampling rate (MATLAB ``fir1``
convention).  Every design windows the ideal response with a Hamming
window.
"""

from __future__ import annotations

import numpy as np

from repro.lti.windows import hamming


def _ideal_lowpass(num_taps: int, cutoff: float) -> np.ndarray:
    """Impulse response of the ideal (sinc) low-pass filter."""
    if not 0.0 < cutoff < 1.0:
        raise ValueError(f"cutoff must be in (0, 1), got {cutoff}")
    if num_taps < 2:
        raise ValueError(f"num_taps must be at least 2, got {num_taps}")
    center = (num_taps - 1) / 2.0
    k = np.arange(num_taps) - center
    # np.sinc is sin(pi x) / (pi x), so the ideal low-pass of normalized
    # cutoff ``fc`` (Nyquist = 1) is fc * sinc(fc * k).
    return cutoff * np.sinc(cutoff * k)


def _normalize_gain(taps: np.ndarray, frequency: float) -> np.ndarray:
    """Scale ``taps`` so that the gain at ``frequency`` (Nyquist units) is 1."""
    omega = np.pi * frequency
    k = np.arange(len(taps))
    gain = np.abs(np.sum(taps * np.exp(-1j * omega * k)))
    if gain == 0.0:
        raise ValueError("cannot normalize a filter with zero gain at the "
                         f"reference frequency {frequency}")
    return taps / gain


def design_fir_lowpass(num_taps: int, cutoff: float) -> np.ndarray:
    """Design a linear-phase low-pass FIR filter.

    Parameters
    ----------
    num_taps:
        Filter length.
    cutoff:
        Normalized cutoff frequency (1.0 = Nyquist).
    """
    taps = _ideal_lowpass(num_taps, cutoff) * hamming(num_taps)
    return _normalize_gain(taps, 0.0)


def design_fir_highpass(num_taps: int, cutoff: float) -> np.ndarray:
    """Design a linear-phase high-pass FIR filter.

    High-pass designs require an odd number of taps (type-I linear phase);
    an even request is silently promoted to the next odd length, matching
    the behaviour of MATLAB's ``fir1``.
    """
    if num_taps % 2 == 0:
        num_taps += 1
    lowpass = _ideal_lowpass(num_taps, cutoff) * hamming(num_taps)
    # Spectral inversion: delta at the center minus the low-pass response.
    taps = -lowpass
    taps[(num_taps - 1) // 2] += 1.0
    return _normalize_gain(taps, 1.0)


def design_fir_bandpass(num_taps: int, low_cutoff: float,
                        high_cutoff: float) -> np.ndarray:
    """Design a linear-phase band-pass FIR filter.

    Parameters
    ----------
    num_taps:
        Filter length.
    low_cutoff, high_cutoff:
        Normalized band edges, ``0 < low < high < 1``.
    """
    if not 0.0 < low_cutoff < high_cutoff < 1.0:
        raise ValueError("band edges must satisfy 0 < low < high < 1, got "
                         f"({low_cutoff}, {high_cutoff})")
    taps = (_ideal_lowpass(num_taps, high_cutoff)
            - _ideal_lowpass(num_taps, low_cutoff)) * hamming(num_taps)
    center_frequency = (low_cutoff + high_cutoff) / 2.0
    return _normalize_gain(taps, center_frequency)

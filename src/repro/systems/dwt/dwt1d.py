"""One-dimensional 9/7 analysis / synthesis with optional quantization.

Filtering is performed as *centered circular convolution*: tap ``k`` of a
filter with declared center ``c`` multiplies the sample ``x[n + (k - c)]``
(indices wrap around).  Circular extension keeps perfect reconstruction
exact without boundary bookkeeping and matches the frequency-domain view
used by the analytical noise model (a circular convolution is an exact
point-wise product of DFTs).

Every ``circular_filter`` call accumulates the products exactly in double
precision and, when a quantizer is supplied, re-quantizes the result —
i.e. one additive noise source per filtering operation, which is exactly
where the analytical model of :mod:`repro.systems.dwt.noise_model`
injects its white sources.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.quantizer import Quantizer
from repro.systems.dwt.daubechies97 import WaveletFilters


def circular_filter(x: np.ndarray, taps: np.ndarray, center: int,
                    axis: int = -1,
                    quantizer: Quantizer | None = None) -> np.ndarray:
    """Centered circular convolution along ``axis``.

    The axis is extended circularly once, to cover the offsets
    ``-center .. len(taps) - 1 - center`` (taps longer than the axis wrap
    several times), and tap ``k`` reads its window as the slice starting
    at ``k`` of that extension; the products are accumulated in tap
    order.  This is bitwise identical to summing ``coefficient *
    np.roll(x, center - k, axis)`` over the taps, without one rolled copy
    per tap.

    Parameters
    ----------
    x:
        Input array (1-D signal or 2-D image).
    taps:
        Filter coefficients.
    center:
        Index of the tap aligned with the current sample.
    axis:
        Axis along which to filter.
    quantizer:
        Optional quantizer applied to the (exactly accumulated) output.
    """
    x = np.asarray(x, dtype=float)
    taps = np.asarray(taps, dtype=float)
    result = np.zeros_like(x)
    length = x.shape[axis]
    if length:
        index = np.arange(-center, length + len(taps) - 1 - center) % length
        extended = np.take(x, index, axis=axis)
        window = [slice(None)] * x.ndim
        for k, coefficient in enumerate(taps):
            window[axis] = slice(k, k + length)
            result += coefficient * extended[tuple(window)]
    if quantizer is not None:
        result = quantizer.quantize(result)
    return result


def analyze_1d(x: np.ndarray, filters: WaveletFilters, axis: int = -1,
               quantizer: Quantizer | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """One level of 1-D analysis: returns ``(low_band, high_band)``.

    Both bands are decimated by two (even phase) along ``axis``.
    """
    low = circular_filter(x, filters.analysis_lowpass,
                          filters.analysis_lowpass_center, axis=axis,
                          quantizer=quantizer)
    high = circular_filter(x, filters.analysis_highpass,
                           filters.analysis_highpass_center, axis=axis,
                           quantizer=quantizer)
    return _decimate(low, axis), _decimate(high, axis)


def synthesize_1d(low: np.ndarray, high: np.ndarray, filters: WaveletFilters,
                  axis: int = -1,
                  quantizer: Quantizer | None = None) -> np.ndarray:
    """One level of 1-D synthesis from ``(low_band, high_band)``."""
    low_up = _expand(low, axis)
    high_up = _expand(high, axis)
    low_part = circular_filter(low_up, filters.synthesis_lowpass,
                               filters.synthesis_lowpass_center, axis=axis,
                               quantizer=quantizer)
    high_part = circular_filter(high_up, filters.synthesis_highpass,
                                filters.synthesis_highpass_center, axis=axis,
                                quantizer=quantizer)
    return low_part + high_part


def _decimate(x: np.ndarray, axis: int) -> np.ndarray:
    slicer = [slice(None)] * x.ndim
    slicer[axis] = slice(0, None, 2)
    return x[tuple(slicer)]


def _expand(x: np.ndarray, axis: int) -> np.ndarray:
    shape = list(x.shape)
    if shape[axis] == 0:
        raise ValueError("cannot expand an empty band")
    shape[axis] = shape[axis] * 2
    expanded = np.zeros(shape, dtype=float)
    slicer = [slice(None)] * x.ndim
    slicer[axis] = slice(0, None, 2)
    expanded[tuple(slicer)] = x
    return expanded

"""Stateful FIR / IIR filter implementations.

Two execution modes are provided for every filter:

* ``process`` — double-precision reference (the "infinite precision"
  baseline of the paper; IEEE double precision is used as reference just
  like in Section II).
* ``process_fixed_point`` — bit-true fixed-point execution where the
  coefficients, the products/accumulator output and (for IIR) the
  recirculated output are quantized.  The difference between both modes is
  the quantization error measured by the simulation-based evaluation
  method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fixedpoint.quantizer import Quantizer, RoundingMode
from repro.fixedpoint.qformat import QFormat
from repro.lti.transfer_function import TransferFunction
from repro.simkernel.iir import iir_df1_fixed


@dataclass(frozen=True)
class FixedPointFilterConfig:
    """Fixed-point configuration of a filter block.

    Attributes
    ----------
    data_fractional_bits:
        Fractional bits of the data path (products are accumulated in full
        precision and the result is quantized back to this precision).
    coefficient_fractional_bits:
        Fractional bits used to store the coefficients; defaults to the
        data precision when ``None``.
    rounding:
        Rounding mode of the data-path quantizers.
    quantize_input:
        Whether the block re-quantizes its input signal before use.
    """

    data_fractional_bits: int
    coefficient_fractional_bits: int | None = None
    rounding: RoundingMode = RoundingMode.ROUND
    quantize_input: bool = False

    @property
    def coeff_bits(self) -> int:
        """Effective coefficient precision."""
        if self.coefficient_fractional_bits is None:
            return self.data_fractional_bits
        return self.coefficient_fractional_bits

    def data_quantizer(self, integer_bits: int = 15) -> Quantizer:
        """Quantizer used on the data path."""
        return Quantizer(QFormat(integer_bits, self.data_fractional_bits),
                         rounding=self.rounding)

    def coefficient_quantizer(self, integer_bits: int = 15) -> Quantizer:
        """Quantizer used on the coefficients.

        Coefficients are design-time constants: they are always converted
        with round-to-nearest regardless of the data-path rounding mode, so
        that the reference (double-precision, quantized-coefficient) system
        and the fixed-point system share exactly the same coefficients.
        """
        return Quantizer(QFormat(integer_bits, self.coeff_bits),
                         rounding=RoundingMode.ROUND)


def _causal_fir(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Causal FIR filtering truncated to the input length.

    The 1-D path keeps the historical ``np.convolve`` implementation so
    existing results stay bitwise identical; stacked trials (last axis =
    time) go through ``lfilter``, which computes the same causal
    convolution per row.
    """
    if x.ndim == 1:
        return np.convolve(x, taps)[:len(x)]
    from scipy.signal import lfilter  # deferred: slow import
    return lfilter(taps, [1.0], x, axis=-1)


class FirFilter:
    """Finite-impulse-response filter.

    Parameters
    ----------
    taps:
        Impulse response (filter coefficients).
    """

    def __init__(self, taps):
        taps = np.atleast_1d(np.asarray(taps, dtype=float))
        if taps.ndim != 1 or len(taps) == 0:
            raise ValueError("taps must be a non-empty 1-D array")
        self.taps = taps

    @property
    def num_taps(self) -> int:
        """Number of coefficients."""
        return len(self.taps)

    def transfer_function(self) -> TransferFunction:
        """Transfer function of the filter."""
        return TransferFunction.fir(self.taps)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def process(self, x: np.ndarray) -> np.ndarray:
        """Double-precision filtering (same length as the input).

        A 2-D input of shape ``(trials, samples)`` filters every trial
        along the last axis in one vectorized pass.
        """
        x = np.asarray(x, dtype=float)
        return _causal_fir(x, self.taps)

    def process_fixed_point(self, x: np.ndarray,
                            config: FixedPointFilterConfig) -> np.ndarray:
        """Fixed-point filtering.

        The coefficients are quantized to the coefficient precision, the
        convolution is computed exactly on the quantized operands and the
        result is quantized back to the data precision — i.e. a single
        quantization at the accumulator output, the standard DSP MAC
        model assumed by the paper's noise-source placement.
        """
        x = np.asarray(x, dtype=float)
        if config.quantize_input:
            x = config.data_quantizer().quantize(x)
        quantized_taps = config.coefficient_quantizer().quantize(self.taps)
        exact = _causal_fir(x, quantized_taps)
        return config.data_quantizer().quantize(exact)


class IirFilter:
    """Infinite-impulse-response filter in direct form I.

    Parameters
    ----------
    b, a:
        Numerator and denominator coefficients; ``a[0]`` must equal 1 (the
        coefficients are normalized if it does not).
    """

    def __init__(self, b, a):
        b = np.atleast_1d(np.asarray(b, dtype=float))
        a = np.atleast_1d(np.asarray(a, dtype=float))
        if a[0] == 0:
            raise ValueError("a[0] must be non-zero")
        self.b = b / a[0]
        self.a = a / a[0]

    @property
    def order(self) -> int:
        """Filter order."""
        return max(len(self.b), len(self.a)) - 1

    def transfer_function(self) -> TransferFunction:
        """Transfer function of the filter."""
        return TransferFunction(self.b, self.a)

    def noise_transfer_function(self) -> TransferFunction:
        """Transfer function from the output quantizer to the output.

        In direct form I the output of the multiply-accumulate tree is
        quantized before being stored into the recursive delay line, so the
        quantization error injected there is filtered by ``1 / A(z)``.
        """
        return TransferFunction([1.0], self.a)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def process(self, x: np.ndarray) -> np.ndarray:
        """Double-precision filtering."""
        from scipy.signal import lfilter  # deferred: slow import
        return lfilter(self.b, self.a, np.asarray(x, dtype=float))

    def process_fixed_point(self, x: np.ndarray,
                            config: FixedPointFilterConfig) -> np.ndarray:
        """Bit-true fixed-point filtering (direct form I).

        The accumulator holds the exact sum of quantized-coefficient
        products; the accumulator output is quantized to the data
        precision before entering the recursive delay line, so the
        quantization error recirculates through ``1 / A(z)`` exactly as the
        analytical model assumes.

        The recursion runs through the scaled-integer-domain kernels of
        :mod:`repro.simkernel.iir` (bitwise identical to the historical
        per-sample loop, which survives as the ``reference`` backend).
        """
        x = np.asarray(x, dtype=float)
        if config.quantize_input:
            x = config.data_quantizer().quantize(x)
        coeff_q = config.coefficient_quantizer()
        b = coeff_q.quantize(self.b)
        a = coeff_q.quantize(self.a)
        step = config.data_quantizer().fmt.step
        return iir_df1_fixed(x, b, a, step, config.rounding)

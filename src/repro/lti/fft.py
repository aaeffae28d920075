"""Bit-true fixed-point radix-2 FFT.

The frequency-domain filtering system of the paper (Fig. 2) contains a
16-point FFT, a point-wise multiplication by filter coefficients and a
16-point inverse FFT.  To simulate that system in fixed point we need an
FFT whose internal arithmetic can be quantized stage by stage, which
off-the-shelf FFT routines do not expose.  :class:`FixedPointFft` runs
iterative radix-2 decimation-in-time butterflies with the twiddle factors
stored in fixed point and each stage output re-quantized, i.e. the
classical fixed-point FFT noise model (one white noise injection per
stage).  The original per-block butterfly loops (``*_reference``) stay
beside the position-major kernels as the oracle's.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.quantizer import Quantizer, RoundingMode
from repro.fixedpoint.qformat import QFormat
from repro.simkernel.fft import (
    bit_reverse_permutation as _bit_reverse_permutation,
    fixed_fft_forward,
    fixed_fft_inverse,
)


def _check_power_of_two(n: int) -> None:
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"FFT size must be a power of two, got {n}")


class FixedPointFft:
    """Bit-true fixed-point radix-2 FFT.

    Parameters
    ----------
    size:
        Transform size (power of two).
    fractional_bits:
        Precision of the data path; the real and imaginary parts of every
        butterfly output are quantized to this precision.
    twiddle_fractional_bits:
        Precision used to store the twiddle factors; defaults to the data
        precision.
    rounding:
        Rounding mode of the data-path quantizers.

    Notes
    -----
    Each of the ``log2(size)`` stages injects one white quantization noise
    per output sample (real and imaginary parts), which is the standard
    noise model used to characterize the FFT block for the analytical
    estimators (see :class:`repro.systems.freq_filter.FrequencyDomainFilter`).
    """

    def __init__(self, size: int, fractional_bits: int,
                 twiddle_fractional_bits: int | None = None,
                 rounding: RoundingMode = RoundingMode.ROUND):
        _check_power_of_two(size)
        self.size = size
        self.fractional_bits = fractional_bits
        self.twiddle_fractional_bits = (
            fractional_bits if twiddle_fractional_bits is None
            else twiddle_fractional_bits)
        self.rounding = rounding
        self._data_quantizer = Quantizer(QFormat(15, fractional_bits),
                                         rounding=rounding)
        twiddle_quantizer = Quantizer(QFormat(2, self.twiddle_fractional_bits),
                                      rounding=rounding)
        self._twiddle_cache = {}
        size_ = 2
        while size_ <= size:
            half = size_ // 2
            twiddles = np.exp(-2j * np.pi * np.arange(half) / size_)
            quantized = (twiddle_quantizer.quantize(twiddles.real)
                         + 1j * twiddle_quantizer.quantize(twiddles.imag))
            self._twiddle_cache[size_] = quantized
            size_ *= 2

    def _quantize_complex(self, values: np.ndarray) -> np.ndarray:
        """The literal complex quantization of the per-block loop."""
        return (self._data_quantizer.quantize(values.real)
                + 1j * self._data_quantizer.quantize(values.imag))

    def forward_position_major(self, data: np.ndarray,
                               work: np.ndarray | None = None) -> np.ndarray:
        """Forward transforms of position-major ``(size, ...)`` buffers.

        The streamed kernel :func:`~repro.simkernel.fft.fixed_fft_forward`
        on this engine's twiddles and in-place data quantizer: ``data``
        is overwritten, ``work`` is scratch, and the buffer holding the
        result is returned.
        """
        return fixed_fft_forward(data, self._twiddle_cache,
                                 self._data_quantizer.quantize_complex, work)

    def inverse_position_major(self, data: np.ndarray,
                               work: np.ndarray | None = None) -> np.ndarray:
        """Inverse transforms of position-major buffers (see
        :meth:`forward_position_major`)."""
        return fixed_fft_inverse(data, self._twiddle_cache,
                                 self._data_quantizer.quantize_complex, work)

    def forward_reference(self, x: np.ndarray) -> np.ndarray:
        """The original butterfly loop over one block of ``size`` samples:
        bitwise identical to :meth:`forward_position_major` on that block."""
        x = self._check_block(x)
        data = self._quantize_complex(x[_bit_reverse_permutation(self.size)])
        size = 2
        while size <= self.size:
            half = size // 2
            twiddles = self._twiddle_cache[size]
            for start in range(0, self.size, size):
                # Copy the upper half before the in-place butterfly update.
                top = data[start:start + half].copy()
                bottom = data[start + half:start + size] * twiddles
                data[start:start + half] = top + bottom
                data[start + half:start + size] = top - bottom
            data = self._quantize_complex(data)
            size *= 2
        return data

    def inverse_reference(self, x: np.ndarray) -> np.ndarray:
        """The original inverse over one block,
        ``q(conj(forward_reference(conj(x))) / size)``: bitwise identical
        to :meth:`inverse_position_major` on that block."""
        x = self._check_block(x)
        result = np.conj(self.forward_reference(np.conj(x))) / self.size
        return self._quantize_complex(result)

    def _check_block(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.size,):
            raise ValueError(f"expected a block of {self.size} samples, "
                             f"got shape {x.shape}")
        return x

"""Overlap-save convolution.

The frequency-domain filtering benchmark (Fig. 2 of the paper) applies an
FIR filter using the *overlap-save* method: the input is cut into
overlapping blocks, each block is transformed with a short FFT, multiplied
by the filter's frequency response and transformed back, and the aliased
part of each output block is discarded.  :func:`overlap_save` is the
double-precision behaviour of that system; its fixed-point simulation
(:class:`~repro.systems.freq_filter.FrequencyDomainFirNode`) runs the
bit-true :class:`~repro.lti.fft.FixedPointFft` on the same block framing
(:mod:`repro.simkernel.fft`).
"""

from __future__ import annotations

import numpy as np

from repro.simkernel.backend import get_backend
from repro.simkernel.fft import overlap_save_assemble, overlap_save_blocks


def overlap_save(x: np.ndarray, h: np.ndarray, fft_size: int) -> np.ndarray:
    """Overlap-save convolution with :mod:`numpy.fft` kernels.

    Parameters
    ----------
    x:
        Input signal.
    h:
        FIR impulse response; must satisfy ``len(h) <= fft_size``.
    fft_size:
        Transform size ``N``.  Each iteration produces
        ``N - len(h) + 1`` new output samples.

    Returns
    -------
    numpy.ndarray
        The first ``x.shape[-1]`` samples of ``x * h`` per stream (causal
        streaming output), identical (up to rounding) to the first
        ``len(x)`` samples of ``numpy.convolve(x, h)``.  The last axis is
        time and leading axes are independent streams; the streaming
        loop of the ``reference`` backend accepts 1-D input only.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if len(h) > fft_size:
        raise ValueError(f"impulse response ({len(h)} taps) does not fit in "
                         f"an FFT of size {fft_size}")
    if get_backend() != "reference":
        # Transform every block (of every stream) in one batched pass —
        # bitwise identical to the streaming loop below; the FFT of each
        # block and the elementwise product are unchanged.  The reference
        # backend keeps the loop as the timing baseline.
        h_padded = np.concatenate([h, np.zeros(fft_size - len(h))])
        h_spectrum = np.fft.fft(h_padded)
        blocks, hop = overlap_save_blocks(x, len(h), fft_size)
        spectra = np.fft.fft(blocks, axis=-1) * h_spectrum
        result = np.real(np.fft.ifft(spectra, axis=-1))
        return overlap_save_assemble(result, len(h), hop, x.shape[-1])
    if x.ndim != 1:
        raise ValueError(
            "the streaming overlap-save loop (the reference backend) "
            f"accepts a single 1-D stream, got shape {x.shape}")

    hop = fft_size - len(h) + 1
    h_padded = np.concatenate([h, np.zeros(fft_size - len(h))])
    h_spectrum = np.fft.fft(h_padded)

    output = np.zeros(len(x) + fft_size)
    # Prepend len(h)-1 zeros so the first block produces the causal start.
    padded = np.concatenate([np.zeros(len(h) - 1), x,
                             np.zeros(fft_size)])
    position = 0
    out_position = 0
    while out_position < len(x):
        block = padded[position:position + fft_size]
        spectrum = np.fft.fft(block) * h_spectrum
        result = np.real(np.fft.ifft(spectrum))
        valid = result[len(h) - 1:]
        output[out_position:out_position + hop] = valid[:hop]
        position += hop
        out_position += hop
    return output[:len(x)]

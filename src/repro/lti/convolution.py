"""Convolution engines: direct, overlap-save and overlap-add.

The frequency-domain filtering benchmark (Fig. 2 of the paper) applies an
FIR filter using the *overlap-save* method: the input is cut into
overlapping blocks, each block is transformed with a short FFT, multiplied
by the filter's frequency response and transformed back, and the aliased
part of each output block is discarded.  These engines are used both by
the double-precision reference and, with fixed-point FFT kernels, by the
fixed-point simulation of that benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.simkernel.backend import get_backend
from repro.simkernel.fft import overlap_save_assemble, overlap_save_blocks


def convolve(x: np.ndarray, h: np.ndarray, mode: str = "full") -> np.ndarray:
    """Direct linear convolution.

    Parameters
    ----------
    x, h:
        Input signal and impulse response.
    mode:
        ``full`` (default) returns the complete convolution of length
        ``len(x) + len(h) - 1``; ``same`` returns the first ``len(x)``
        samples, matching the streaming behaviour of a causal filter.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    full = np.convolve(x, h)
    if mode == "full":
        return full
    if mode == "same":
        return full[:len(x)]
    raise ValueError(f"unknown mode {mode!r}")


def overlap_save(x: np.ndarray, h: np.ndarray, fft_size: int,
                 fft=None, ifft=None) -> np.ndarray:
    """Overlap-save convolution with a configurable FFT kernel.

    Parameters
    ----------
    x:
        Input signal.
    h:
        FIR impulse response; must satisfy ``len(h) <= fft_size``.
    fft_size:
        Transform size ``N``.  Each iteration produces
        ``N - len(h) + 1`` new output samples.
    fft, ifft:
        Optional transform kernels with the signature ``kernel(block) ->
        block``.  They default to :func:`numpy.fft.fft` /
        :func:`numpy.fft.ifft`; the fixed-point simulation passes the
        bit-true kernels from :mod:`repro.lti.fft` instead.

    Returns
    -------
    numpy.ndarray
        The first ``x.shape[-1]`` samples of ``x * h`` per stream (causal
        streaming output), identical (up to rounding) to
        ``convolve(x, h, "same")``.  With the default numpy kernels the
        last axis is time and leading axes are independent streams; the
        streaming loop used for custom kernels (and by the ``reference``
        backend) accepts 1-D input only.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if len(h) > fft_size:
        raise ValueError(f"impulse response ({len(h)} taps) does not fit in "
                         f"an FFT of size {fft_size}")
    if fft is None and ifft is None and get_backend() != "reference":
        # Default numpy kernels: transform every block (of every stream)
        # in one batched pass — bitwise identical to the streaming loop
        # below; the FFT of each block and the elementwise product are
        # unchanged.  The reference backend keeps the loop as the timing
        # baseline.
        h_padded = np.concatenate([h, np.zeros(fft_size - len(h))])
        h_spectrum = np.fft.fft(h_padded)
        blocks, hop = overlap_save_blocks(x, len(h), fft_size)
        spectra = np.fft.fft(blocks, axis=-1) * h_spectrum
        result = np.real(np.fft.ifft(spectra, axis=-1))
        return overlap_save_assemble(result, len(h), hop, x.shape[-1])
    if x.ndim != 1:
        raise ValueError(
            "the streaming overlap-save loop (custom FFT kernels or the "
            "reference backend) accepts a single 1-D stream, got shape "
            f"{x.shape}")
    if fft is None:
        fft = np.fft.fft
    if ifft is None:
        ifft = np.fft.ifft

    hop = fft_size - len(h) + 1
    h_padded = np.concatenate([h, np.zeros(fft_size - len(h))])
    h_spectrum = fft(h_padded)

    output = np.zeros(len(x) + fft_size)
    # Prepend len(h)-1 zeros so the first block produces the causal start.
    padded = np.concatenate([np.zeros(len(h) - 1), x,
                             np.zeros(fft_size)])
    position = 0
    out_position = 0
    while out_position < len(x):
        block = padded[position:position + fft_size]
        spectrum = fft(block) * h_spectrum
        result = np.real(ifft(spectrum))
        valid = result[len(h) - 1:]
        output[out_position:out_position + hop] = valid[:hop]
        position += hop
        out_position += hop
    return output[:len(x)]


def overlap_add(x: np.ndarray, h: np.ndarray, fft_size: int,
                fft=None, ifft=None) -> np.ndarray:
    """Overlap-add convolution with a configurable FFT kernel.

    Same interface as :func:`overlap_save`; provided for completeness and
    used in the ablation comparing the two block-convolution schemes.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if len(h) > fft_size:
        raise ValueError(f"impulse response ({len(h)} taps) does not fit in "
                         f"an FFT of size {fft_size}")
    if fft is None:
        fft = np.fft.fft
    if ifft is None:
        ifft = np.fft.ifft

    hop = fft_size - len(h) + 1
    h_padded = np.concatenate([h, np.zeros(fft_size - len(h))])
    h_spectrum = fft(h_padded)

    output = np.zeros(len(x) + fft_size)
    for start in range(0, len(x), hop):
        block = x[start:start + hop]
        block_padded = np.concatenate([block, np.zeros(fft_size - len(block))])
        spectrum = fft(block_padded) * h_spectrum
        result = np.real(ifft(spectrum))
        output[start:start + fft_size] += result
    return output[:len(x)]

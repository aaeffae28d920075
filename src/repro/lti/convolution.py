"""Overlap-save convolution.

The frequency-domain filtering benchmark (Fig. 2 of the paper) applies an
FIR filter using the *overlap-save* method: the input is cut into
overlapping blocks, each block is transformed with a short FFT, multiplied
by the filter's frequency response and transformed back, and the aliased
part of each output block is discarded.  :func:`overlap_save` is the
double-precision behaviour of that system; its fixed-point simulation
(:class:`~repro.systems.freq_filter.FrequencyDomainFirNode`) runs the
bit-true :class:`~repro.lti.fft.FixedPointFft` on the same block framing.
Both legs stream ``CHUNK_SAMPLES``-sized chunks of rows of the strided
framing view (:mod:`repro.simkernel.fft`) through preallocated buffers;
:func:`overlap_save_reference` keeps the original per-block loop.
"""

from __future__ import annotations

import numpy as np

from repro.simkernel.fft import chunk_rows, overlap_save_frames


def _checked(x, h, fft_size: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if x.ndim != 1:
        raise ValueError(
            f"overlap-save filters one 1-D stream, got shape {x.shape}")
    if len(h) > fft_size:
        raise ValueError(f"impulse response ({len(h)} taps) does not fit in "
                         f"an FFT of size {fft_size}")
    return x, h


def overlap_save(x: np.ndarray, h: np.ndarray, fft_size: int) -> np.ndarray:
    """Overlap-save convolution with :mod:`numpy.fft` kernels.

    Parameters
    ----------
    x:
        Input signal, one 1-D stream.
    h:
        FIR impulse response; must satisfy ``len(h) <= fft_size``.
    fft_size:
        Transform size ``N``.  Each iteration produces
        ``N - len(h) + 1`` new output samples.

    Returns
    -------
    numpy.ndarray
        The first ``len(x)`` samples of ``x * h`` (causal streaming
        output), identical (up to rounding) to the first ``len(x)``
        samples of ``numpy.convolve(x, h)``.
    """
    x, h = _checked(x, h, fft_size)
    # Bitwise identical to the per-block loop: the FFT of each block and
    # the elementwise product are unchanged.
    h_padded = np.concatenate([h, np.zeros(fft_size - len(h))])
    h_spectrum = np.fft.fft(h_padded)
    frames, hop = overlap_save_frames(x, len(h), fft_size)
    valid = np.empty((len(frames), hop))
    rows = chunk_rows(fft_size)
    buffer = np.empty((min(rows, len(frames)), fft_size), dtype=complex)
    for start in range(0, len(frames), rows):
        stop = min(start + rows, len(frames))
        spectra = buffer[:stop - start]
        np.fft.fft(frames[start:stop], axis=-1, out=spectra)
        np.multiply(spectra, h_spectrum, out=spectra)
        np.fft.ifft(spectra, axis=-1, out=spectra)
        valid[start:stop] = spectra.real[:, len(h) - 1:len(h) - 1 + hop]
    return valid.reshape(-1)[:len(x)]


def overlap_save_reference(x: np.ndarray, h: np.ndarray,
                           fft_size: int) -> np.ndarray:
    """The original per-block loop of :func:`overlap_save` (the oracle's
    double leg): same parameters and result, bit for bit."""
    x, h = _checked(x, h, fft_size)
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

"""Position-major radix-2 FFT butterflies and streamed overlap-save framing.

The bit-true fixed-point FFT quantizes every butterfly stage, so it
cannot be delegated to an off-the-shelf FFT — but its *structure* is
fully data-parallel: within one stage every butterfly group applies the
same elementwise complex multiply/add to disjoint positions, and separate
blocks are completely independent.  The kernels here hold a batch of
transforms *position-major*, shape ``(size, ...)``: position ``p`` of
every transform is one contiguous row, so a stage is one twiddle
product, one sum and one difference over whole rows, written into a
second buffer of the same shape (the butterflies never allocate), and
every quantization runs in place on a buffer (see
:meth:`~repro.fixedpoint.quantizer.Quantizer.quantize_complex`).  Every
operation is the elementwise NumPy complex op of the per-block loop, so
the results are bitwise identical to it (asserted in
``tests/test_simkernel.py``).

The overlap-save helpers frame a signal as a strided view of one padded
copy, so both legs of the frequency-domain filter, and Welch's segments
(:mod:`repro.psd.estimation`), stream ``CHUNK_SAMPLES``-sized chunks of
rows through preallocated buffers instead of gathering every block.
"""

from __future__ import annotations

import numpy as np

#: Samples per chunk of every streamed block pass (the bit-true and double
#: overlap-save legs and Welch's segments): 16 384 complex samples, i.e.
#: 1024 rows of a 16-point FFT, keep a chunk's buffers in cache (see
#: ARCHITECTURE.md, "Vectorized block pipelines").
CHUNK_SAMPLES = 16_384


def chunk_rows(row_length: int) -> int:
    """Rows of ``row_length`` samples that make up one chunk."""
    return max(1, CHUNK_SAMPLES // row_length)


def bit_reverse_permutation(n: int) -> np.ndarray:
    """Indices of the bit-reversal permutation of length ``n``."""
    bits = int(np.log2(n))
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=int)
    for bit in range(bits):
        reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
    return reversed_indices


def fixed_fft_forward(data: np.ndarray, twiddles: dict, quantize,
                      work: np.ndarray | None = None) -> np.ndarray:
    """Fixed-point forward FFT over axis 0 of position-major ``data``.

    Parameters
    ----------
    data:
        C-contiguous complex128 transforms of shape ``(size, ...)``:
        positions on axis 0, independent transforms on the trailing axes.
        It is overwritten.
    twiddles:
        Mapping from butterfly size to the quantized twiddle factors of
        that stage (as pre-built by the FFT engine).
    quantize:
        ``quantize(values, work)`` quantizes a complex array in place,
        using ``work`` (same shape) as scratch; applied to the
        bit-reversed input and after every stage, as in the bit-true
        engine.
    work:
        Scratch buffer like ``data``; allocated when omitted.

    Returns
    -------
    numpy.ndarray
        The transform, in ``data`` or in ``work`` (whichever the last
        stage wrote); the other one is free scratch.
    """
    size = data.shape[0]
    if work is None:
        work = np.empty_like(data)
    np.take(data, bit_reverse_permutation(size), axis=0, out=work,
            mode="clip")
    data, work = work, data
    quantize(data, work)
    stage = 2
    while stage <= size:
        half = stage // 2
        source = data.reshape((size // stage, stage) + data.shape[1:])
        target = work.reshape(source.shape)
        bottom = source[:, half:]
        twiddle = twiddles[stage].reshape((half,) + (1,) * (data.ndim - 1))
        np.multiply(bottom, twiddle, out=bottom)
        np.add(source[:, :half], bottom, out=target[:, :half])
        np.subtract(source[:, :half], bottom, out=target[:, half:])
        data, work = work, data
        quantize(data, work)
        stage *= 2
    return data


def fixed_fft_inverse(data: np.ndarray, twiddles: dict, quantize,
                      work: np.ndarray | None = None) -> np.ndarray:
    """Fixed-point inverse FFT (scaled by ``1/size``) over axis 0.

    Same layout, buffers and return convention as
    :func:`fixed_fft_forward`; the ``1/size`` scaling stays NumPy's
    complex division, as in ``conj(forward(conj(x))) / size``.
    """
    size = data.shape[0]
    if work is None:
        work = np.empty_like(data)
    np.conjugate(data, out=data)
    result = fixed_fft_forward(data, twiddles, quantize, work)
    spare = work if result is data else data
    np.conjugate(result, out=result)
    np.divide(result, size, out=result)
    quantize(result, spare)
    return result


# ----------------------------------------------------------------------
# Overlap-save framing
# ----------------------------------------------------------------------
def overlap_save_frames(x: np.ndarray, taps_len: int,
                        fft_size: int) -> tuple[np.ndarray, int]:
    """Frame the stream ``x`` into the overlapping blocks of overlap-save.

    Returns ``(frames, hop)``: ``frames`` is a read-only strided
    ``(ceil(samples / hop), fft_size)`` view over one zero-padded copy of
    ``x`` (no block is gathered), each row advanced by ``hop`` samples
    and prefixed with the ``taps_len - 1`` history samples (zeros for the
    causal start), exactly as the streaming loop sees them.  The rows'
    valid outputs, laid end to end, hold the output stream followed by
    at most ``hop - 1`` dropped samples.
    """
    x = np.asarray(x, dtype=float)
    hop = fft_size - taps_len + 1
    if hop < 1:
        raise ValueError(f"{taps_len} taps do not fit in an FFT of size "
                         f"{fft_size}")
    rows = -(-len(x) // hop)
    padded = np.zeros(rows * hop + taps_len - 1)
    padded[taps_len - 1:taps_len - 1 + len(x)] = x
    frames = np.lib.stride_tricks.as_strided(
        padded, (rows, fft_size), (hop * padded.itemsize, padded.itemsize),
        writeable=False)
    return frames, hop

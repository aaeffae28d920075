"""Estimation of a :class:`~repro.psd.spectrum.DiscretePsd` from samples.

The simulation-based reference of the paper measures the output error
signal and, for Fig. 7, its spectral repartition.  These estimators turn a
sample record into the same discrete-PSD representation used by the
analytical engine so that both can be compared bin by bin.

The one estimator of a record is Welch's averaged periodogram over
Hann-windowed segments with 50 % overlap.  Every estimate is normalized
so that the bins of the returned PSD sum to the sample variance
(library-wide convention) and the mean is the sample mean.

The Welch estimator streams its segments: they are rows of one strided
view of the record (no segment is copied out), windowed and transformed
one ``CHUNK_SAMPLES``-sized chunk at a time (:mod:`repro.simkernel.fft`)
through preallocated buffers, for one record or for a stack of records
at once (:func:`welch_batched`), and the periodograms are summed into a
running total that each chunk carries on.  The results
are bitwise identical to the historical per-segment loop, which is
preserved as :func:`_welch_reference` and asserted against in the tests.
(A real-input ``rfft`` would halve the transform work but is *not*
bitwise identical to the complex FFT the loop used, so the full transform
is kept.)
"""

from __future__ import annotations

import numpy as np

from repro.lti.windows import hann
from repro.obs import span
from repro.psd.spectrum import DiscretePsd
from repro.simkernel.fft import chunk_rows


def _welch_stack(records: np.ndarray,
                 n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Streamed Welch core over a stack of records.

    ``records`` has shape ``(trials, samples)``; returns ``(ac, means)``
    of shapes ``(trials, n_bins)`` and ``(trials,)``.  Every per-record
    quantity reproduces the legacy loop bit for bit: the strided segment
    view holds the same values as the sliced segments, the batched FFT
    matches the per-segment transforms, and the periodograms are summed
    along the segment axis in the order of the sequential ``+=``, the
    running sum entering each chunk through its first periodogram.
    """
    if n_bins < 2:
        raise ValueError(f"n_bins must be at least 2, got {n_bins}")
    if records.shape[-1] == 0:
        raise ValueError("cannot estimate the PSD of an empty record")

    # A non-finite record would otherwise come back as a PSD of zeros:
    # the renormalization below blanks the bins of a NaN variance.
    means = np.mean(records, axis=-1)
    if not np.all(np.isfinite(means)):
        raise ValueError("cannot estimate the PSD of a record whose mean is "
                         "not finite (a NaN or inf sample)")
    centered = records - means[..., None]
    variances = np.mean(centered ** 2, axis=-1)
    if not np.all(np.isfinite(variances)):
        raise ValueError("cannot estimate the PSD of a record whose variance "
                         "is not finite (its squares overflow)")

    if centered.shape[-1] < n_bins:
        pad = n_bins - centered.shape[-1]
        centered = np.concatenate(
            [centered, np.zeros(centered.shape[:-1] + (pad,))], axis=-1)

    win = hann(n_bins)
    window_power = float(np.mean(win ** 2))
    if not window_power > 0.0:
        # A 2-point Hann window is all zeros: every segment would be
        # blanked out and the estimate silently all-zero.
        raise ValueError(
            f"the Hann window has zero power on {n_bins} bins; use more "
            "bins")
    hop = round(n_bins / 2)

    # One strided view per record: (trials, segments, n_bins), every
    # segment starting hop samples after the previous one.
    segments = np.lib.stride_tricks.sliding_window_view(
        centered, n_bins, axis=-1)[..., ::hop, :]
    count = segments.shape[-2]
    scale = n_bins * n_bins * window_power
    rows = chunk_rows(n_bins * len(centered))
    ac = np.zeros(centered.shape[:-1] + (n_bins,))
    shape = centered.shape[:-1] + (min(rows, count), n_bins)
    power, spectra = np.empty(shape), np.empty(shape, dtype=complex)
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        chunk = power[..., :stop - start, :]
        np.multiply(segments[..., start:stop, :], win, out=chunk)
        transform = np.fft.fft(chunk, axis=-1,
                               out=spectra[..., :stop - start, :])
        np.square(np.abs(transform, out=chunk), out=chunk)
        np.divide(chunk, scale, out=chunk)
        chunk[..., 0, :] += ac
        np.sum(chunk, axis=-2, out=ac)
    ac /= count

    # Renormalize so that the bins sum exactly to the sample variance;
    # windowing and segmentation only introduce a small bias that this
    # correction removes, keeping the scalar power information exact.
    totals = np.sum(ac, axis=-1)
    live = (variances > 0.0) & (totals > 0.0)
    ac[~live] = 0.0
    ac[live] *= (variances[live] / totals[live])[..., None]
    return ac, means


def welch(x: np.ndarray, n_bins: int) -> DiscretePsd:
    """Welch's averaged periodogram estimate: Hann-windowed segments of
    ``n_bins`` samples, each starting half a segment after the previous.

    Parameters
    ----------
    x:
        Sample record (flattened to 1-D); a record shorter than
        ``n_bins`` is zero-padded to one segment.
    n_bins:
        Segment length and number of frequency bins of the estimate (at
        least 3: the 2-point Hann window is all zeros).

    Returns
    -------
    DiscretePsd
        Estimate whose bins sum to the sample variance and whose mean is
        the sample mean.
    """
    x = np.asarray(x, dtype=float).ravel()
    with span("psd.welch", samples=x.shape[0], n_bins=n_bins):
        ac, means = _welch_stack(x[None, :], n_bins)
    return DiscretePsd(ac[0], float(means[0]))


def welch_batched(x: np.ndarray, n_bins: int) -> list[DiscretePsd]:
    """Per-record Welch estimates of a stack of records, in one pass.

    ``x`` has shape ``(..., samples)``; leading axes are independent
    records.  Equivalent to calling :func:`welch` on every row (bitwise —
    the rows share one batched FFT), returned in row order.
    """
    x = np.asarray(x, dtype=float)
    records = x.reshape(-1, x.shape[-1]) if x.ndim > 1 else x[None, :]
    with span("psd.welch", samples=records.shape[-1], n_bins=n_bins,
              records=records.shape[0]):
        ac, means = _welch_stack(records, n_bins)
    return [DiscretePsd(ac[row], float(means[row]))
            for row in range(records.shape[0])]


def _welch_reference(x: np.ndarray, n_bins: int) -> DiscretePsd:
    """The historical per-segment Welch loop (kept as the ground truth).

    The vectorized :func:`welch` must match this loop bit for bit; the
    equality is asserted in ``tests/test_simkernel.py`` and the loop is
    the baseline of the PSD-estimation benchmark.
    """
    x = np.asarray(x, dtype=float).ravel()
    if len(x) == 0:
        raise ValueError("cannot estimate the PSD of an empty record")

    mean = float(np.mean(x))
    centered = x - mean
    variance = float(np.mean(centered ** 2))
    if variance == 0.0:
        return DiscretePsd(np.zeros(n_bins), mean)

    if len(centered) < n_bins:
        centered = np.concatenate([centered, np.zeros(n_bins - len(centered))])

    win = hann(n_bins)
    window_power = float(np.mean(win ** 2))
    hop = max(1, round(n_bins / 2))

    accumulated = np.zeros(n_bins)
    count = 0
    start = 0
    while start + n_bins <= len(centered):
        segment = centered[start:start + n_bins] * win
        spectrum = np.fft.fft(segment)
        accumulated += (np.abs(spectrum) ** 2) / (n_bins * n_bins * window_power)
        count += 1
        start += hop
    ac = accumulated / count

    total = float(np.sum(ac))
    if total > 0.0:
        ac *= variance / total
    return DiscretePsd(ac, mean)


def estimate_psd_2d(image_error: np.ndarray) -> np.ndarray:
    """Two-dimensional periodogram of an error image (for Fig. 7).

    Parameters
    ----------
    image_error:
        2-D array of error samples.

    Returns
    -------
    numpy.ndarray
        2-D array of the same shape whose entries sum to the per-pixel
        error power ``E[e^2]``, with the zero-frequency bin at the center
        (``fftshift`` layout, matching the paper's visualization where the
        image center is DC).
    """
    image_error = np.asarray(image_error, dtype=float)
    if image_error.ndim != 2:
        raise ValueError("image_error must be two-dimensional")
    rows, cols = image_error.shape
    spectrum = np.fft.fft2(image_error)
    power = (np.abs(spectrum) ** 2) / (rows * rows * cols * cols)
    return np.fft.fftshift(power)

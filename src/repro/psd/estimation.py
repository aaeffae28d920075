"""Estimation of a :class:`~repro.psd.spectrum.DiscretePsd` from samples.

The simulation-based reference of the paper measures the output error
signal and, for Fig. 7, its spectral repartition.  These estimators turn a
sample record into the same discrete-PSD representation used by the
analytical engine so that both can be compared bin by bin.

Both a raw periodogram and Welch's averaged, windowed periodogram are
provided.  All estimates are normalized so that the bins of the returned
PSD sum to the sample variance (library-wide convention) and the mean is
the sample mean.

The Welch estimator is fully vectorized: the overlapping segments are
extracted as one strided view and transformed with a single batched FFT,
for one record or for a whole stack of Monte-Carlo trials at once
(:func:`welch_batched`).  The results are bitwise identical to the
historical per-segment loop, which is preserved as
:func:`_welch_reference` and asserted against in the tests.  (A real-input
``rfft`` would halve the transform work but is *not* bitwise identical to
the complex FFT the loop used, so the full transform is kept.)
"""

from __future__ import annotations

import numpy as np

from repro.lti.windows import get_window
from repro.obs import span
from repro.psd.spectrum import DiscretePsd


#: Segment-matrix size above which the vectorized Welch core switches
#: from one batched FFT to per-segment accumulation (same bits, bounded
#: memory).  2^23 doubles keep the transient complex spectra well under
#: a gigabyte.
_MAX_ONE_SHOT_ELEMENTS = 1 << 23


def periodogram(x: np.ndarray, n_bins: int) -> DiscretePsd:
    """Single-segment periodogram estimate.

    Parameters
    ----------
    x:
        Sample record (1-D).  If longer than ``n_bins`` only full segments
        are used and averaged (rectangular window, no overlap), which makes
        this a Bartlett estimate; if shorter, the record is zero-padded.
    n_bins:
        Number of frequency bins of the estimate.
    """
    return welch(x, n_bins, window="rectangular", overlap=0.0)


def _welch_stack(records: np.ndarray, n_bins: int, window: str,
                 overlap: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Welch core over a stack of records.

    ``records`` has shape ``(trials, samples)``; returns ``(ac, means)``
    of shapes ``(trials, n_bins)`` and ``(trials,)``.  Every per-record
    quantity reproduces the legacy loop bit for bit: the strided segment
    view holds the same values as the sliced segments, the batched FFT
    matches the per-segment transforms, and summing the per-segment
    periodograms along the segment axis accumulates in the same order as
    the sequential ``+=``.
    """
    if records.shape[-1] == 0:
        raise ValueError("cannot estimate the PSD of an empty record")
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must be in [0, 1), got {overlap}")

    means = np.mean(records, axis=-1)
    centered = records - means[..., None]
    variances = np.mean(centered ** 2, axis=-1)

    if centered.shape[-1] < n_bins:
        pad = n_bins - centered.shape[-1]
        centered = np.concatenate(
            [centered, np.zeros(centered.shape[:-1] + (pad,))], axis=-1)

    win = get_window(window, n_bins)
    window_power = float(np.mean(win ** 2))
    if not window_power > 0.0:
        # e.g. a 2-point Hann window is all zeros: every segment would
        # be blanked out and the estimate silently all-zero.
        raise ValueError(
            f"the {window!r} window has zero power on {n_bins} bins; use "
            "more bins or another window")
    hop = max(1, int(round(n_bins * (1.0 - overlap))))

    # One strided view per record: (trials, segments, n_bins), every
    # segment starting hop samples after the previous one.
    segments = np.lib.stride_tricks.sliding_window_view(
        centered, n_bins, axis=-1)[..., ::hop, :]
    count = segments.shape[-2]
    scale = n_bins * n_bins * window_power
    if segments.size <= _MAX_ONE_SHOT_ELEMENTS:
        spectra = np.fft.fft(segments * win, axis=-1)
        ac = np.sum((np.abs(spectra) ** 2) / scale, axis=-2) / count
    else:
        # Extreme-overlap regimes (hop clamped towards 1) produce nearly
        # one segment per sample; materializing them all would need
        # orders of magnitude more memory than the record itself.  Fall
        # back to per-segment accumulation over the same strided view —
        # the reference loop's order, so still bitwise identical.
        ac = np.empty(centered.shape[:-1] + (n_bins,))
        for index in np.ndindex(segments.shape[:-2]):
            accumulated = np.zeros(n_bins)
            for segment in segments[index]:
                spectrum = np.fft.fft(segment * win)
                accumulated += (np.abs(spectrum) ** 2) / scale
            ac[index] = accumulated / count

    # Renormalize so that the bins sum exactly to the sample variance;
    # windowing and segmentation only introduce a small bias that this
    # correction removes, keeping the scalar power information exact.
    totals = np.sum(ac, axis=-1)
    live = (variances > 0.0) & (totals > 0.0)
    ac[~live] = 0.0
    ac[live] *= (variances[live] / totals[live])[..., None]
    return ac, means


def welch(x: np.ndarray, n_bins: int, window: str = "hann",
          overlap: float = 0.5) -> DiscretePsd:
    """Welch's averaged periodogram estimate.

    Parameters
    ----------
    x:
        Sample record (flattened to 1-D).
    n_bins:
        Segment length and number of frequency bins of the estimate.
    window:
        Window applied to each segment (see :mod:`repro.lti.windows`).
    overlap:
        Fractional overlap between consecutive segments, in ``[0, 1)``.

    Returns
    -------
    DiscretePsd
        Estimate whose bins sum to the sample variance and whose mean is
        the sample mean.
    """
    x = np.asarray(x, dtype=float).ravel()
    with span("psd.welch", samples=x.shape[0], n_bins=n_bins):
        ac, means = _welch_stack(x[None, :], n_bins, window, overlap)
    return DiscretePsd(ac[0], float(means[0]))


def welch_batched(x: np.ndarray, n_bins: int, window: str = "hann",
                  overlap: float = 0.5) -> list[DiscretePsd]:
    """Per-trial Welch estimates of a stacked record, in one pass.

    ``x`` has shape ``(..., samples)``; leading axes are independent
    records.  Equivalent to calling :func:`welch` on every row (bitwise —
    the rows share one batched FFT), returned in row order.
    """
    x = np.asarray(x, dtype=float)
    records = x.reshape(-1, x.shape[-1]) if x.ndim > 1 else x[None, :]
    with span("psd.welch", samples=records.shape[-1], n_bins=n_bins,
              records=records.shape[0]):
        ac, means = _welch_stack(records, n_bins, window, overlap)
    return [DiscretePsd(ac[row], float(means[row]))
            for row in range(records.shape[0])]


def _welch_reference(x: np.ndarray, n_bins: int, window: str = "hann",
                     overlap: float = 0.5) -> DiscretePsd:
    """The historical per-segment Welch loop (kept as the ground truth).

    The vectorized :func:`welch` must match this loop bit for bit; the
    equality is asserted in ``tests/test_simkernel.py`` and the loop is
    the baseline of the PSD-estimation benchmark.
    """
    x = np.asarray(x, dtype=float).ravel()
    if len(x) == 0:
        raise ValueError("cannot estimate the PSD of an empty record")
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must be in [0, 1), got {overlap}")

    mean = float(np.mean(x))
    centered = x - mean
    variance = float(np.mean(centered ** 2))
    if variance == 0.0:
        return DiscretePsd(np.zeros(n_bins), mean)

    if len(centered) < n_bins:
        centered = np.concatenate([centered, np.zeros(n_bins - len(centered))])

    win = get_window(window, n_bins)
    window_power = float(np.mean(win ** 2))
    hop = max(1, int(round(n_bins * (1.0 - overlap))))

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


def estimate_psd(x: np.ndarray, n_bins: int, method: str = "welch",
                 window: str = "hann", overlap: float = 0.5) -> DiscretePsd:
    """Estimate the discrete PSD of a sample record.

    Parameters
    ----------
    x:
        Sample record.
    n_bins:
        Number of frequency bins.
    method:
        ``welch`` (default) or ``periodogram``.
    window, overlap:
        Parameters forwarded to :func:`welch`.
    """
    method = method.lower()
    if method == "welch":
        return welch(x, n_bins, window=window, overlap=overlap)
    if method == "periodogram":
        return periodogram(x, n_bins)
    raise ValueError(f"unknown PSD estimation method {method!r}")


def estimate_psd_batch(x: np.ndarray, n_bins: int, method: str = "welch",
                       window: str = "hann",
                       overlap: float = 0.5) -> list[DiscretePsd]:
    """Per-trial PSD estimates of a stacked record, in one batched pass."""
    method = method.lower()
    if method == "welch":
        return welch_batched(x, n_bins, window=window, overlap=overlap)
    if method == "periodogram":
        return welch_batched(x, n_bins, window="rectangular", overlap=0.0)
    raise ValueError(f"unknown PSD estimation method {method!r}")


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

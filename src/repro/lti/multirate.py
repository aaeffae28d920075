"""Multirate operators: decimation (down-sampling) and expansion
(up-sampling).

The Daubechies 9/7 DWT codec of the paper's third experiment (Fig. 3) is a
two-channel filter bank built from these operators: analysis filters are
followed by ``2 v`` (keep one sample out of two) and synthesis filters are
preceded by ``2 ^`` (insert a zero between consecutive samples).

Besides the time-domain operators themselves, this module provides the
corresponding *PSD transformation rules* needed by the proposed estimation
method (aliasing for the decimator, imaging for the expander), expressed in
the library-wide convention that the bins of a discrete PSD sum to the
total signal power ``E[x^2]``.
"""

from __future__ import annotations

import numpy as np


def downsample(x: np.ndarray, factor: int = 2, phase: int = 0) -> np.ndarray:
    """Keep one sample out of ``factor``.

    Parameters
    ----------
    x:
        Input signal; the last axis is time.
    factor:
        Down-sampling factor ``M >= 1``.
    phase:
        Index of the first retained sample (``0 <= phase < factor``).
    """
    x = np.asarray(x)
    _check_factor(factor)
    if not 0 <= phase < factor:
        raise ValueError(f"phase must be in [0, {factor}), got {phase}")
    return x[..., phase::factor]


def upsample(x: np.ndarray, factor: int = 2) -> np.ndarray:
    """Insert ``factor - 1`` zeros between consecutive samples.

    The last axis is time.
    """
    x = np.asarray(x)
    _check_factor(factor)
    y = np.zeros(x.shape[:-1] + (x.shape[-1] * factor,), dtype=x.dtype)
    y[..., ::factor] = x
    return y


def downsample_psd(psd: np.ndarray, factor: int = 2) -> np.ndarray:
    """PSD of a signal after down-sampling by ``factor``.

    Down-sampling by ``M`` folds (aliases) the spectrum: the power that was
    spread over ``M`` input bins lands on one output bin.  Because a
    wide-sense-stationary signal keeps the same per-sample power after
    decimation (``E[y^2] = E[x^2]``), and because our discrete PSDs sum to
    the per-sample power, the output PSD on ``n // M`` bins is simply the
    sum of the ``M`` aliases::

        S_y[k] = sum_{m=0}^{M-1} S_x[k + m * (n // M)]

    Parameters
    ----------
    psd:
        Input PSD on ``n`` bins (the last axis; leading axes are
        independent configurations); ``n`` must be divisible by
        ``factor``.
    factor:
        Down-sampling factor.
    """
    psd = np.asarray(psd, dtype=float)
    _check_factor(factor)
    n = psd.shape[-1]
    if n % factor != 0:
        raise ValueError(f"PSD length {n} is not divisible by factor {factor}")
    out_len = n // factor
    return psd.reshape(psd.shape[:-1] + (factor, out_len)).sum(axis=-2)


def upsample_psd(psd: np.ndarray, factor: int = 2) -> np.ndarray:
    """PSD of a signal after zero-insertion up-sampling by ``factor``.

    Up-sampling by ``L`` compresses the spectrum and creates ``L`` images,
    and the per-sample power drops by ``L`` (only one sample in ``L`` is
    non-zero).  With the sum-to-power convention the ``L * n`` output bins
    must therefore sum to ``sum(S_x) / L`` while keeping the imaged shape::

        S_y[k] = S_x[k mod n] / L**2           (output length L * n)

    (one factor of ``L`` spreads the power over ``L`` times more bins, the
    other accounts for the actual power loss of zero insertion).  The last
    axis is the bin axis; leading axes are independent configurations.
    """
    psd = np.asarray(psd, dtype=float)
    _check_factor(factor)
    reps = (1,) * (psd.ndim - 1) + (factor,)
    return np.tile(psd / (factor * factor), reps)


def _check_factor(factor: int) -> None:
    if factor < 1:
        raise ValueError(f"factor must be at least 1, got {factor}")

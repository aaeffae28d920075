"""Window functions: Hamming for the windowed-sinc FIR design, Hann for
the Welch segments of :mod:`repro.psd.estimation`.

Both windows are symmetric (filter-design convention) and returned as
length-``n`` float arrays.
"""

from __future__ import annotations

import numpy as np


def hamming(n: int) -> np.ndarray:
    """Hamming window (0.54 - 0.46 cos)."""
    _check_length(n)
    if n == 1:
        return np.ones(1)
    k = np.arange(n)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1))


def hann(n: int) -> np.ndarray:
    """Hann (raised cosine) window."""
    _check_length(n)
    if n == 1:
        return np.ones(1)
    k = np.arange(n)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * k / (n - 1))


def _check_length(n: int) -> None:
    if n < 1:
        raise ValueError(f"window length must be positive, got {n}")

"""Batched discrete PSDs — one spectrum per word-length configuration.

:class:`PsdStack` is the configuration-batched counterpart of
:class:`~repro.psd.spectrum.DiscretePsd`: the AC part is a ``(K, n_bins)``
array and the signed mean a ``(K,)`` array, one row per configuration of a
:class:`~repro.sfg.plan.ConfigStack`.  Every operation mirrors the scalar
class element for element — same operand pairs, same operation order — so
row ``k`` of a batched walk is bit-identical to the scalar walk of
configuration ``k``; ``tests/test_analysis_batch.py`` pins that down.

The scalar class validates and clips its bins on construction; the stack
skips that on the hot path because every producing operation here
(white construction, squared-magnitude filtering, signed addition of
non-negative bins, spectral folding/imaging) preserves non-negativity.
"""

from __future__ import annotations

import numpy as np

from repro.psd.spectrum import DiscretePsd


class PsdStack:
    """A stack of discrete PSDs with a leading configuration axis.

    Parameters
    ----------
    ac:
        ``(K, n_bins)`` array, per-config per-bin power of the zero-mean
        part of the signal.
    mean:
        ``(K,)`` array, per-config signed mean.
    """

    __slots__ = ("ac", "mean")

    def __init__(self, ac: np.ndarray, mean: np.ndarray):
        ac = np.asarray(ac, dtype=float)
        mean = np.asarray(mean, dtype=float)
        if ac.ndim != 2:
            raise ValueError(
                f"ac must be a (configs, bins) array, got shape {ac.shape}")
        if mean.shape != (ac.shape[0],):
            raise ValueError(
                f"mean must have shape ({ac.shape[0]},), got {mean.shape}")
        self.ac = ac
        self.mean = mean

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, size: int, n_bins: int) -> "PsdStack":
        """The stack of ``size`` identically-zero PSDs."""
        if size < 1 or n_bins < 1:
            raise ValueError(
                f"need at least one config and one bin, got ({size}, {n_bins})")
        return cls(np.zeros((size, n_bins)), np.zeros(size))

    @classmethod
    def white(cls, means: np.ndarray, variances: np.ndarray,
              n_bins: int) -> "PsdStack":
        """White PSDs from per-config moments (Eq. 10, batched).

        Mirrors :meth:`DiscretePsd.white`: each row spreads its variance
        uniformly over all bins and keeps its mean signed and separate.
        """
        means = np.asarray(means, dtype=float)
        variances = np.asarray(variances, dtype=float)
        ac = np.broadcast_to((variances / n_bins)[:, None],
                             (len(variances), n_bins)).copy()
        return cls(ac, means.copy())

    # ------------------------------------------------------------------
    # Scalar summaries
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of stacked configurations."""
        return self.ac.shape[0]

    @property
    def n_bins(self) -> int:
        """Number of frequency bins."""
        return self.ac.shape[1]

    @property
    def variance(self) -> np.ndarray:
        """Per-config variance (power of the zero-mean part), shape ``(K,)``."""
        return np.sum(self.ac, axis=-1)

    @property
    def total_power(self) -> np.ndarray:
        """Per-config total power ``E[x^2]``, shape ``(K,)``."""
        return self.mean ** 2 + self.variance

    def select(self, config: int) -> DiscretePsd:
        """Extract one configuration as a scalar :class:`DiscretePsd`."""
        return DiscretePsd(self.ac[config].copy(), float(self.mean[config]))

    # ------------------------------------------------------------------
    # Algebra (mirrors DiscretePsd operation for operation)
    # ------------------------------------------------------------------
    def copy(self) -> "PsdStack":
        """An independent copy."""
        return PsdStack(self.ac.copy(), self.mean.copy())

    def __add__(self, other: "PsdStack") -> "PsdStack":
        """Per-config sum of two uncorrelated noise stacks (Eq. 14)."""
        if not isinstance(other, PsdStack):
            return NotImplemented
        if other.n_bins != self.n_bins or other.size != self.size:
            raise ValueError(
                f"cannot add stacks of shapes {self.ac.shape} and "
                f"{other.ac.shape}")
        return PsdStack(self.ac + other.ac, self.mean + other.mean)

    def scaled(self, gain: float) -> "PsdStack":
        """PSDs after multiplication of the signal by a constant gain."""
        if gain == 1.0:
            # x * 1.0 is exactly x (signed zeros included), so the
            # adders' unit signs skip three array passes.
            return self
        return PsdStack(self.ac * gain * gain, self.mean * gain)

    def filtered(self, frequency_response: np.ndarray) -> "PsdStack":
        """PSDs after an LTI block (Eq. 11), shared or per-config response.

        ``frequency_response`` is either a single ``(n_bins,)`` response
        applied to every config or a ``(K, n_bins)`` array with one
        response row per config (the coefficient-precision-tracking case).
        """
        response = np.asarray(frequency_response)
        if response.shape[-1] != self.n_bins:
            raise ValueError(
                f"frequency response has {response.shape[-1]} points, "
                f"expected {self.n_bins}")
        if response.ndim == 2 and response.shape[0] != self.size:
            raise ValueError(
                f"response stack has {response.shape[0]} rows, expected "
                f"{self.size}")
        magnitude_sq = np.abs(response) ** 2
        dc_gain = np.real(response[..., 0])
        return PsdStack(self.ac * magnitude_sq, self.mean * dc_gain)

    # ------------------------------------------------------------------
    # Multirate transformations
    # ------------------------------------------------------------------
    def downsampled(self, factor: int = 2) -> "PsdStack":
        """PSDs after down-sampling (per-config spectral folding)."""
        from repro.lti.multirate import downsample_psd
        return PsdStack(downsample_psd(self.ac, factor), self.mean.copy())

    def upsampled(self, factor: int = 2) -> "PsdStack":
        """PSDs after zero-insertion up-sampling (per-config imaging)."""
        from repro.lti.multirate import upsample_psd
        return PsdStack(upsample_psd(self.ac, factor), self.mean / factor)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PsdStack(size={self.size}, n_bins={self.n_bins})"

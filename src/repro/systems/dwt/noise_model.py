"""Analytical noise representation for separable 2-D systems.

The 2-D DWT codec is a separable system: every operation filters,
decimates or expands the image along one axis at a time.  A white 2-D
quantization-noise source therefore keeps a *separable* power spectral
density along every path — the product of one profile per image axis —
and the total noise at any point of the codec is a **sum of separable
contributions** (one per noise source) plus a deterministic mean.

:class:`SeparableNoiseField` stores exactly that:

* ``contributions`` — a list of per-source pairs ``{axis 0 profile,
  axis 1 profile}`` where the power of the contribution is
  ``sum(profile0) * sum(profile1)``;
* ``mean`` — the signed deterministic mean of the noise.

The same class implements the **PSD-agnostic** variant (``mode =
"agnostic"``): profiles collapse to a single bin and LTI filtering
multiplies the power by the impulse-response energy (white-input
assumption) instead of shaping a spectrum — which is precisely the
approximation whose error the paper quantifies (610 % on the DWT in
Table II).

All transformation methods return new objects; fields are immutable from
the caller's point of view, which keeps the analytic codec code mirroring
the sample-domain codec line for line.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.noise_model import NoiseStats
from repro.lti.multirate import downsample_psd, upsample_psd
from repro.lti.transfer_function import TransferFunction

_MODES = ("psd", "agnostic")


class SeparableNoiseField:
    """Sum-of-separable-contributions noise model for a 2-D signal."""

    __slots__ = ("mode", "bins", "contributions", "mean")

    def __init__(self, mode: str, bins: dict[int, int],
                 contributions: list[dict[int, np.ndarray]] | None = None,
                 mean: float = 0.0):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.mode = mode
        self.bins = {0: int(bins[0]), 1: int(bins[1])}
        self.contributions = contributions or []
        self.mean = float(mean)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, n_bins: int, mode: str = "psd") -> "SeparableNoiseField":
        """A noise-free field.

        ``n_bins`` is the per-axis PSD resolution in ``psd`` mode and is
        ignored (forced to one bin) in ``agnostic`` mode.
        """
        if mode == "agnostic":
            return cls(mode, {0: 1, 1: 1})
        if n_bins < 2:
            raise ValueError(f"n_bins must be at least 2, got {n_bins}")
        return cls(mode, {0: n_bins, 1: n_bins})

    def _copy(self, contributions=None, mean=None,
              bins=None) -> "SeparableNoiseField":
        return SeparableNoiseField(
            self.mode,
            bins if bins is not None else dict(self.bins),
            contributions if contributions is not None
            else [dict(c) for c in self.contributions],
            self.mean if mean is None else mean,
        )

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def injected(self, stats: NoiseStats) -> "SeparableNoiseField":
        """Field with one additional white noise source added at this point."""
        contributions = [dict(c) for c in self.contributions]
        if stats.variance > 0.0:
            profile0 = np.full(self.bins[0], stats.variance / self.bins[0])
            profile1 = np.full(self.bins[1], 1.0 / self.bins[1])
            if self.mode == "agnostic":
                profile0 = np.array([stats.variance])
                profile1 = np.array([1.0])
            contributions.append({0: profile0, 1: profile1})
        return self._copy(contributions=contributions,
                          mean=self.mean + stats.mean)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def filtered(self, taps: np.ndarray, axis: int) -> "SeparableNoiseField":
        """Field after LTI filtering along ``axis``."""
        taps = np.asarray(taps, dtype=float)
        dc_gain = float(np.sum(taps))
        contributions = []
        if self.mode == "psd":
            # The filter rule of the SFG walks (``DiscretePsd.filtered``).
            magnitude = TransferFunction(taps, [1.0]).magnitude_response(
                self.bins[axis])
            for contribution in self.contributions:
                updated = dict(contribution)
                updated[axis] = contribution[axis] * magnitude
                contributions.append(updated)
        else:
            energy = float(np.dot(taps, taps))
            for contribution in self.contributions:
                updated = dict(contribution)
                updated[axis] = contribution[axis] * energy
                contributions.append(updated)
        return self._copy(contributions=contributions,
                          mean=self.mean * dc_gain)

    def downsampled(self, axis: int, factor: int = 2) -> "SeparableNoiseField":
        """Field after decimation by ``factor`` along ``axis``."""
        if self.mode == "agnostic":
            return self._copy()
        bins = dict(self.bins)
        bins[axis] = bins[axis] // factor
        contributions = []
        for contribution in self.contributions:
            updated = dict(contribution)
            updated[axis] = downsample_psd(contribution[axis], factor)
            contributions.append(updated)
        return self._copy(contributions=contributions, bins=bins)

    def upsampled(self, axis: int, factor: int = 2) -> "SeparableNoiseField":
        """Field after zero-insertion expansion by ``factor`` along ``axis``."""
        if self.mode == "agnostic":
            contributions = []
            for contribution in self.contributions:
                updated = dict(contribution)
                updated[axis] = contribution[axis] / factor
                contributions.append(updated)
            return self._copy(contributions=contributions,
                              mean=self.mean / factor)
        bins = dict(self.bins)
        bins[axis] = bins[axis] * factor
        contributions = []
        for contribution in self.contributions:
            updated = dict(contribution)
            updated[axis] = upsample_psd(contribution[axis], factor)
            contributions.append(updated)
        return self._copy(contributions=contributions, bins=bins,
                          mean=self.mean / factor)

    def added(self, other: "SeparableNoiseField") -> "SeparableNoiseField":
        """Field at the output of an adder combining two signals (Eq. 14)."""
        if self.mode != other.mode:
            raise ValueError("cannot add fields with different modes")
        if self.bins != other.bins:
            raise ValueError(
                f"cannot add fields with bin counts {self.bins} and {other.bins}")
        contributions = ([dict(c) for c in self.contributions]
                         + [dict(c) for c in other.contributions])
        return self._copy(contributions=contributions,
                          mean=self.mean + other.mean)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    @property
    def variance(self) -> float:
        """Variance (power of the zero-mean part) of the field."""
        return float(sum(np.sum(c[0]) * np.sum(c[1])
                         for c in self.contributions))

    @property
    def total_power(self) -> float:
        """Total noise power ``E[e^2] = mean^2 + variance``."""
        return self.mean ** 2 + self.variance

    def to_stats(self) -> NoiseStats:
        """Collapse to first two moments."""
        return NoiseStats(mean=self.mean, variance=self.variance)

    def to_psd_2d(self, fftshift: bool = True) -> np.ndarray:
        """Render the 2-D PSD map (for the Fig. 7 comparison).

        Returns an array of shape ``(bins[0], bins[1])`` whose entries sum
        to the total power; the DC bin carries the squared mean.  With
        ``fftshift=True`` (default) the zero-frequency bin is moved to the
        center, matching the paper's visualization.
        """
        if self.mode != "psd":
            raise ValueError("only PSD-mode fields can render a 2-D map")
        grid = np.zeros((self.bins[0], self.bins[1]))
        for contribution in self.contributions:
            grid += np.outer(contribution[0], contribution[1])
        grid[0, 0] += self.mean ** 2
        if fftshift:
            grid = np.fft.fftshift(grid)
        return grid

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SeparableNoiseField(mode={self.mode!r}, bins={self.bins}, "
                f"sources={len(self.contributions)}, "
                f"power={self.total_power:.3e})")

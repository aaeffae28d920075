"""Analytical noise representations for separable 2-D systems.

The 2-D DWT codec is a separable system: every operation filters,
decimates or expands the image along one axis at a time.  A white 2-D
quantization-noise source therefore keeps a *separable* power spectral
density along every path — the product of one profile per image axis —
and the total noise at any point of the codec is a **sum of separable
contributions** (one per noise source) plus a deterministic mean.

:class:`SeparableNoiseField` stores exactly that on the SFG walks' own
algebra: one :class:`~repro.psd.spectrum.DiscretePsd` stack per image
axis, whose row ``s`` is source ``s`` (axis 0 carries the source's
variance, axis 1 unit power), plus the signed mean.  Each operation is
the ``DiscretePsd`` rule of the same name applied to one axis's stack.

:class:`MomentField` is the **PSD-agnostic** counterpart: the first two
moments of the whole signal, propagated by the
:class:`~repro.fixedpoint.noise_model.NoiseStats` moment rules (filtering
scales the variance by the impulse-response energy, the white-input
assumption whose error the paper quantifies in Table II).

Both classes offer the same operations, so the analytic codec runs one
mirror of the sample-domain codec for either.  Every operation returns a
new object.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.noise_model import NoiseStats
from repro.lti.transfer_function import TransferFunction
from repro.psd.spectrum import DiscretePsd


def _white_rows(variances, n_bins: int) -> DiscretePsd:
    """A stack of zero-mean white rows, one per variance (none allowed)."""
    variances = np.asarray(variances, dtype=float)
    return DiscretePsd.white(NoiseStats(np.zeros(len(variances)), variances),
                             n_bins)


class SeparableNoiseField:
    """Sum-of-separable-sources noise model of a 2-D signal."""

    __slots__ = ("axes", "mean")

    def __init__(self, axes: tuple[DiscretePsd, DiscretePsd],
                 mean: float = 0.0):
        self.axes = tuple(axes)
        self.mean = float(mean)

    @classmethod
    def zero(cls, n_bins: int) -> "SeparableNoiseField":
        """A noise-free field on ``n_bins`` bins per axis."""
        if n_bins < 2:
            raise ValueError(f"n_bins must be at least 2, got {n_bins}")
        empty = _white_rows([], n_bins)
        return cls((empty, empty))

    def _with_axis(self, axis: int, psd: DiscretePsd,
                   mean: float) -> "SeparableNoiseField":
        axes = list(self.axes)
        axes[axis] = psd
        return SeparableNoiseField(axes, mean)

    def injected(self, stats: NoiseStats) -> "SeparableNoiseField":
        """Field with one additional white noise source added at this point."""
        rows, columns = self.axes
        if stats.variance > 0.0:
            rows = rows.joined(_white_rows([stats.variance], rows.n_bins))
            columns = columns.joined(_white_rows([1.0], columns.n_bins))
        return SeparableNoiseField((rows, columns), self.mean + stats.mean)

    def filtered(self, taps: np.ndarray, axis: int) -> "SeparableNoiseField":
        """Field after LTI filtering along ``axis`` (Eq. 11)."""
        system = TransferFunction.fir(taps)
        psd = self.axes[axis]
        return self._with_axis(
            axis, psd.filtered(system.frequency_response(psd.n_bins)),
            self.mean * system.coefficient_sum())

    def downsampled(self, axis: int, factor: int = 2) -> "SeparableNoiseField":
        """Field after decimation by ``factor`` along ``axis``."""
        return self._with_axis(axis, self.axes[axis].downsampled(factor),
                               self.mean)

    def upsampled(self, axis: int, factor: int = 2) -> "SeparableNoiseField":
        """Field after zero-insertion expansion by ``factor`` along ``axis``."""
        return self._with_axis(axis, self.axes[axis].upsampled(factor),
                               self.mean / factor)

    def added(self, other: "SeparableNoiseField") -> "SeparableNoiseField":
        """Field at the output of an adder combining two signals (Eq. 14)."""
        return SeparableNoiseField(
            [mine.joined(theirs) for mine, theirs in zip(self.axes, other.axes)],
            self.mean + other.mean)

    @property
    def variance(self) -> float:
        """Variance (power of the zero-mean part) of the field."""
        # Python's sum adds the per-source powers in source order.
        return float(sum(self.axes[0].variance * self.axes[1].variance))

    @property
    def total_power(self) -> float:
        """Total noise power ``E[e^2] = mean^2 + variance``."""
        return self.mean ** 2 + self.variance

    def to_psd_2d(self, fftshift: bool = True) -> np.ndarray:
        """Render the 2-D PSD map (for the Fig. 7 comparison).

        Returns an array of shape ``(n_bins[0], n_bins[1])`` whose entries
        sum to the total power; the DC bin carries the squared mean.  With
        ``fftshift=True`` (default) the zero-frequency bin is moved to the
        center, matching the paper's visualization.
        """
        rows, columns = self.axes
        grid = np.zeros((rows.n_bins, columns.n_bins))
        for profile0, profile1 in zip(rows.ac, columns.ac):
            grid += np.outer(profile0, profile1)
        grid[0, 0] += self.mean ** 2
        if fftshift:
            grid = np.fft.fftshift(grid)
        return grid

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SeparableNoiseField(n_bins=({self.axes[0].n_bins}, "
                f"{self.axes[1].n_bins}), sources={self.axes[0].size}, "
                f"power={self.total_power:.3e})")


class MomentField:
    """First two moments of a 2-D noise signal (PSD-agnostic baseline).

    The moment rules do not depend on the image axis, so ``axis`` is
    accepted, to keep the codec's one mirror, and ignored.
    """

    __slots__ = ("stats",)

    def __init__(self, stats: NoiseStats = NoiseStats(0.0, 0.0)):
        self.stats = stats

    def injected(self, stats: NoiseStats) -> "MomentField":
        """Moments with one additional noise source added at this point."""
        return MomentField(self.stats + stats)

    def filtered(self, taps: np.ndarray, axis: int) -> "MomentField":
        """Moments after LTI filtering (white-input energy rule)."""
        system = TransferFunction.fir(taps)
        return MomentField(self.stats.filtered(system.energy(),
                                               system.coefficient_sum()))

    def downsampled(self, axis: int, factor: int = 2) -> "MomentField":
        """Moments after decimation by ``factor``."""
        return MomentField(self.stats.downsampled(factor))

    def upsampled(self, axis: int, factor: int = 2) -> "MomentField":
        """Moments after zero-insertion expansion by ``factor``."""
        return MomentField(self.stats.upsampled(factor))

    def added(self, other: "MomentField") -> "MomentField":
        """Moments at the output of an adder (uncorrelated inputs)."""
        return MomentField(self.stats + other.stats)

    @property
    def mean(self) -> float:
        return self.stats.mean

    @property
    def variance(self) -> float:
        return self.stats.variance

    @property
    def total_power(self) -> float:
        """Total noise power ``E[e^2] = mean^2 + variance``."""
        return self.stats.power

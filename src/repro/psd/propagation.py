"""Per-source tracked propagation of quantization-noise spectra.

The hierarchical PSD method of the paper propagates one
:class:`~repro.psd.spectrum.DiscretePsd` per signal and adds PSDs at
adders under the uncorrelated assumption (Eq. 14).  When a single noise
source reaches an adder through *two different paths* (re-convergent
fan-out, as in the synthesis side of a wavelet filter bank), the two
contributions are fully correlated and Eq. 12's cross-spectra must be
taken into account.

:class:`TrackedSpectrum` implements the exact treatment: for every noise
source ``i`` it stores the *complex* frequency response ``G_i(F)`` of the
path from the source to the current signal, sampled on the ``N_PSD``
bins.  Adding two tracked spectra adds the complex responses source by
source, so the cross terms ``G_a G_b*`` appear automatically when the
magnitude is finally squared:

    ``S(F) = sum_i sigma_i^2 / N * |G_i(F)|^2``
    ``mean = sum_i mu_i * Re(G_i(0))``

Collapsing a :class:`TrackedSpectrum` to a :class:`DiscretePsd` therefore
yields the correlated-aware result; the PSD-agnostic and plain-PSD engines
never build the cross terms and exhibit the corresponding estimation
errors, which is precisely the effect the paper quantifies.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.noise_model import NoiseStats
from repro.psd.spectrum import DiscretePsd


class TrackedSpectrum:
    """Noise spectrum with per-source complex path responses.

    Parameters
    ----------
    n_bins:
        Number of frequency bins.
    sources:
        Mapping from source identifier to a pair ``(stats, response)``
        where ``stats`` is the :class:`NoiseStats` of the white source and
        ``response`` is the complex path response from the source to the
        tracked signal (array of length ``n_bins``).
    """

    __slots__ = ("n_bins", "sources")

    def __init__(self, n_bins: int, sources: dict | None = None):
        if n_bins < 1:
            raise ValueError(f"n_bins must be positive, got {n_bins}")
        self.n_bins = n_bins
        self.sources: dict = {}
        if sources:
            for key, (stats, response) in sources.items():
                response = np.asarray(response, dtype=complex)
                if len(response) != n_bins:
                    raise ValueError(
                        f"source {key!r} has a response of length "
                        f"{len(response)}, expected {n_bins}")
                self.sources[key] = (stats, response)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, n_bins: int) -> "TrackedSpectrum":
        """A signal carrying no noise at all."""
        return cls(n_bins)

    @classmethod
    def from_source(cls, source_id, stats: NoiseStats,
                    n_bins: int) -> "TrackedSpectrum":
        """A fresh white noise source observed at its injection point."""
        response = np.ones(n_bins, dtype=complex)
        return cls(n_bins, {source_id: (stats, response)})

    # ------------------------------------------------------------------
    # Propagation operations
    # ------------------------------------------------------------------
    def filtered(self, frequency_response: np.ndarray) -> "TrackedSpectrum":
        """Propagate through an LTI block with the given complex response."""
        response = np.asarray(frequency_response, dtype=complex)
        if len(response) != self.n_bins:
            raise ValueError(
                f"frequency response has {len(response)} points, expected "
                f"{self.n_bins}")
        sources = {key: (stats, path * response)
                   for key, (stats, path) in self.sources.items()}
        return TrackedSpectrum(self.n_bins, sources)

    def scaled(self, gain: float) -> "TrackedSpectrum":
        """Propagate through a constant gain."""
        sources = {key: (stats, path * gain)
                   for key, (stats, path) in self.sources.items()}
        return TrackedSpectrum(self.n_bins, sources)

    def __add__(self, other: "TrackedSpectrum") -> "TrackedSpectrum":
        """Convergence of two signals at an adder (exact, Eq. 12)."""
        if not isinstance(other, TrackedSpectrum):
            return NotImplemented
        if other.n_bins != self.n_bins:
            raise ValueError(
                f"cannot add spectra with {self.n_bins} and {other.n_bins} bins")
        sources = {key: (stats, path.copy())
                   for key, (stats, path) in self.sources.items()}
        for key, (stats, path) in other.sources.items():
            if key in sources:
                existing_stats, existing_path = sources[key]
                sources[key] = (existing_stats, existing_path + path)
            else:
                sources[key] = (stats, path.copy())
        return TrackedSpectrum(self.n_bins, sources)

    def with_source(self, source_id, stats: NoiseStats) -> "TrackedSpectrum":
        """Add a new white noise source injected at this point."""
        if source_id in self.sources:
            raise ValueError(f"source {source_id!r} already present")
        sources = dict(self.sources)
        sources[source_id] = (stats, np.ones(self.n_bins, dtype=complex))
        return TrackedSpectrum(self.n_bins, sources)

    # ------------------------------------------------------------------
    # Collapse
    # ------------------------------------------------------------------
    def to_psd(self) -> DiscretePsd:
        """Collapse to a :class:`DiscretePsd`, cross-terms included."""
        ac = np.zeros(self.n_bins)
        mean = 0.0
        for stats, response in self.sources.values():
            magnitude_sq = np.abs(response) ** 2
            ac += stats.variance / self.n_bins * magnitude_sq
            mean += stats.mean * float(np.real(response[0]))
        return DiscretePsd(ac, mean)

    @property
    def total_power(self) -> float:
        """Total noise power at the tracked signal."""
        return self.to_psd().total_power

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TrackedSpectrum(n_bins={self.n_bins}, "
                f"sources={len(self.sources)})")


def cross_spectrum_contribution(psd_a: DiscretePsd, psd_b: DiscretePsd,
                                correlation: np.ndarray) -> np.ndarray:
    """Cross-spectral power added when two partially correlated signals sum.

    Parameters
    ----------
    psd_a, psd_b:
        Auto-PSDs of the two signals.
    correlation:
        Complex per-bin correlation coefficient (coherence with phase)
        between the two signals; 0 means uncorrelated, 1 fully correlated
        in phase, -1 fully correlated in anti-phase.

    Returns
    -------
    numpy.ndarray
        The term ``S_ab + S_ba = 2 Re(correlation) sqrt(S_a S_b)`` per bin,
        which an adder contributes on top of ``S_a + S_b`` (Eq. 12).
    """
    correlation = np.asarray(correlation)
    if len(correlation) != psd_a.n_bins or psd_a.n_bins != psd_b.n_bins:
        raise ValueError("PSDs and correlation must share the same bin count")
    return 2.0 * np.real(correlation) * np.sqrt(psd_a.ac * psd_b.ac)

"""Power-spectral-density substrate.

The proposed accuracy-evaluation method (Section III of the paper)
represents every quantization-noise signal by a *discrete PSD* sampled on
``N_PSD`` frequency bins plus its (signed) mean, and propagates that
representation through the blocks of the system.  This subpackage
provides:

* :class:`~repro.psd.spectrum.DiscretePsd` — the noise-spectrum container
  and its algebra (filtering, addition, scaling, multirate
  transformations), written once over an optional leading configuration
  axis so the batched analytical walks and the scalar ones share it.
* :mod:`~repro.psd.estimation` — Welch estimation (Hann window, 50 %
  overlap) of a :class:`DiscretePsd` from sample data, the reference
  spectra of simulation.
* :mod:`~repro.psd.propagation` — the per-source tracked propagation used
  when re-convergent (correlated) noise paths must be handled exactly
  (Eqs. 12–13).
"""

from repro.psd.spectrum import DiscretePsd
from repro.psd.estimation import welch, welch_batched
from repro.psd.propagation import TrackedSpectrum

__all__ = [
    "DiscretePsd",
    "welch",
    "welch_batched",
    "TrackedSpectrum",
]

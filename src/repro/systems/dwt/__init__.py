"""Daubechies (CDF) 9/7 discrete wavelet transform codec (Fig. 3).

The third benchmark of the paper is a 2-level two-dimensional Daubechies
9/7 DWT encoder / decoder, the transform at the heart of JPEG-2000.  The
subpackage provides:

* :mod:`~repro.systems.dwt.daubechies97` — the analysis / synthesis filter
  pairs (validated for perfect reconstruction);
* :mod:`~repro.systems.dwt.dwt1d` / :mod:`~repro.systems.dwt.dwt2d` — the
  separable transform engines with optional per-operation quantization;
* :mod:`~repro.systems.dwt.noise_model` — the analytical noise
  representations: per-axis PSD source stacks for the proposed PSD
  method, first two moments for its PSD-agnostic counterpart;
* :mod:`~repro.systems.dwt.codec` — the :class:`Dwt97Codec` system tying
  everything together (reference run, fixed-point run, analytical
  estimates, 2-D error-spectrum maps for Fig. 7).
"""

from repro.systems.dwt.daubechies97 import WaveletFilters, daubechies_9_7_filters
from repro.systems.dwt.dwt1d import analyze_1d, circular_filter, synthesize_1d
from repro.systems.dwt.dwt2d import analyze_2d, synthesize_2d
from repro.systems.dwt.noise_model import MomentField, SeparableNoiseField
from repro.systems.dwt.codec import Dwt97Codec
from repro.systems.dwt.lifting import (
    LiftingDwt97Codec,
    lifting_analyze_1d,
    lifting_analyze_2d,
    lifting_synthesize_1d,
    lifting_synthesize_2d,
)

__all__ = [
    "LiftingDwt97Codec",
    "lifting_analyze_1d",
    "lifting_analyze_2d",
    "lifting_synthesize_1d",
    "lifting_synthesize_2d",
    "WaveletFilters",
    "daubechies_9_7_filters",
    "circular_filter",
    "analyze_1d",
    "synthesize_1d",
    "analyze_2d",
    "synthesize_2d",
    "SeparableNoiseField",
    "MomentField",
    "Dwt97Codec",
]

"""Fixed-point arithmetic substrate.

This subpackage provides everything the accuracy-evaluation engines need to
know about fixed-point data types:

* :class:`~repro.fixedpoint.qformat.QFormat` — a signed/unsigned Q-format
  description (integer bits, fractional bits) with its word length and
  quantization step.
* :class:`~repro.fixedpoint.quantizer.Quantizer` — a vectorized quantizer
  supporting rounding, truncation and convergent rounding.  It has no
  overflow handling: the paper studies precision errors only, with every
  integer part sized so that nothing overflows.
* :mod:`~repro.fixedpoint.noise_model` — the Widrow pseudo-quantization-noise
  (PQN) model giving the mean and variance of the error introduced by a
  quantization, for both continuous-amplitude inputs and re-quantization of
  already-quantized signals (Section II of the paper).
"""

from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantizer import Quantizer, RoundingMode
from repro.fixedpoint.noise_model import NoiseStats, quantization_noise_stats
# NOTE: repro.fixedpoint.range_analysis operates on signal-flow graphs and
# therefore sits *above* repro.sfg in the layering; import it explicitly
# (``from repro.fixedpoint.range_analysis import ...``) rather than from
# this package root to keep the package import acyclic.

__all__ = [
    "QFormat",
    "Quantizer",
    "RoundingMode",
    "NoiseStats",
    "quantization_noise_stats",
]

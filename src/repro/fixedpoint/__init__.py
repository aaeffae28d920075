"""Fixed-point arithmetic substrate.

This subpackage provides everything the accuracy-evaluation engines need to
know about fixed-point data types:

* :class:`~repro.fixedpoint.quantizer.Quantizer` — a vectorized quantizer
  onto the grid of ``2**-fractional_bits`` steps, supporting rounding,
  truncation and convergent rounding.  A format has no integer part: the
  paper studies precision errors only, with every integer part sized so
  that nothing overflows, so no width but the fractional one changes a
  value.
* :mod:`~repro.fixedpoint.noise_model` — the Widrow pseudo-quantization-noise
  (PQN) model giving the mean and variance of the error introduced by a
  quantization, for both continuous-amplitude inputs and re-quantization of
  already-quantized signals (Section II of the paper).
"""

from repro.fixedpoint.quantizer import Quantizer, RoundingMode
from repro.fixedpoint.noise_model import NoiseStats, quantization_noise_stats

__all__ = [
    "Quantizer",
    "RoundingMode",
    "NoiseStats",
    "quantization_noise_stats",
]

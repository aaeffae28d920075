"""Widrow pseudo-quantization-noise (PQN) model.

Section II of the paper relies on the classical PQN model [Widrow &
Kollar, 2008]: under mild conditions on the signal distribution, the error
``e = Q(x) - x`` introduced by a quantizer behaves like an additive noise
that is

1. uncorrelated with the signal,
2. white (uncorrelated in time), and
3. uniformly distributed over one quantization step.

The first two moments of that noise depend on the rounding mode and on
whether the input is continuous-amplitude or already quantized on a finer
grid (re-quantization from ``d_in`` to ``d_out`` fractional bits).

With ``q_out = 2**-d_out`` the output step and ``q_in`` the input step
(``q_in = 0`` for a continuous-amplitude input):

================  =========================  ================================
mode              mean                        variance
================  =========================  ================================
truncation        ``-(q_out - q_in) / 2``    ``(q_out**2 - q_in**2) / 12``
round (MATLAB)    ``0``                      ``(q_out**2 + 2 q_in**2) / 12``
convergent        ``0``                      ``(q_out**2 - q_in**2) / 12``
================  =========================  ================================

These expressions are exact for a discrete input uniformly distributed on
its grid and symmetric about zero, and are the standard PQN approximations
otherwise.  ``ROUND`` is MATLAB ``round`` — ties away from zero, an *odd*
characteristic — so positive and negative tie errors (``±q_out/2``, hit
with probability ``q_in / q_out``) cancel in the mean but add the
``q_in**2 / 4`` tie term to the variance:
``(q_out**2 - q_in**2) / 12 + q_in**2 / 4 = (q_out**2 + 2 q_in**2) / 12``.
For a continuous input (``q_in = 0``) ties have probability zero and the
classical ``q_out**2 / 12`` is recovered.  (``CONVERGENT`` keeps the
standard continuous-input expression; its discrete-input tie term is
neglected, a documented approximation.)

The PSD of such a noise source, discretized over ``n_psd`` frequency bins
(Eq. 10 of the paper), spreads the variance uniformly over all bins and
adds the squared mean on the DC bin:
``repro.psd.spectrum.DiscretePsd.white(stats, n_psd).values``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fixedpoint.quantizer import RoundingMode


@dataclass(frozen=True)
class NoiseStats:
    """First two moments of a quantization noise source.

    Attributes
    ----------
    mean:
        Expected value of the error ``Q(x) - x``.
    variance:
        Variance of the error.
    """

    mean: float
    variance: float

    @property
    def power(self) -> float:
        """Total noise power ``E[e^2] = mean**2 + variance``."""
        return self.mean ** 2 + self.variance

    def scaled(self, gain: float) -> "NoiseStats":
        """Moments of the noise after multiplication by a constant gain."""
        # The squared gain first: the moment walk's adders scale their
        # inputs here, and this order keeps their estimates' bits.
        return NoiseStats(mean=self.mean * gain,
                          variance=gain * gain * self.variance)

    def __add__(self, other: "NoiseStats") -> "NoiseStats":
        """Moments of the sum of two *uncorrelated* noise sources."""
        if not isinstance(other, NoiseStats):
            return NotImplemented
        return NoiseStats(mean=self.mean + other.mean,
                          variance=self.variance + other.variance)

    # The moment rules of the PSD-agnostic baseline, beside the
    # DiscretePsd operations of the same names.
    def filtered(self, energy, dc_gain, out: "NoiseStats | None" = None
                 ) -> "NoiseStats":
        """Moments after an LTI system of impulse-response energy
        ``sum h^2`` and DC gain ``sum h``, under the white-input
        assumption.

        ``out``, moments with array fields of this one's shape, receives
        the result in place (it must not overlap these); it is returned.
        """
        if out is None:
            return NoiseStats(mean=self.mean * dc_gain,
                              variance=self.variance * energy)
        np.multiply(self.mean, dc_gain, out=out.mean)
        np.multiply(self.variance, energy, out=out.variance)
        return out

    def downsampled(self, factor: int = 2) -> "NoiseStats":
        """Moments after decimation: a WSS signal keeps them."""
        return self

    def upsampled(self, factor: int = 2) -> "NoiseStats":
        """Moments after zero insertion: both divide by ``factor``."""
        return NoiseStats(mean=self.mean / factor,
                          variance=self.variance / factor)


def quantization_step(fractional_bits: int | None) -> float:
    """Quantization step for ``fractional_bits`` bits (0 if ``None``).

    ``None`` denotes a continuous-amplitude (infinite precision) signal and
    maps to a step of zero, which makes the noise expressions below
    degenerate to the continuous-input case.
    """
    if fractional_bits is None:
        return 0.0
    if fractional_bits < 0:
        raise ValueError("fractional_bits must be non-negative or None")
    return 2.0 ** (-fractional_bits)


def quantization_noise_stats(
    output_fractional_bits: int,
    rounding: RoundingMode | str = RoundingMode.ROUND,
    input_fractional_bits: int | None = None,
) -> NoiseStats:
    """Mean and variance of a quantization-noise source.

    Parameters
    ----------
    output_fractional_bits:
        Precision of the quantizer output.
    rounding:
        Rounding mode of the quantizer.
    input_fractional_bits:
        Precision of the quantizer input; ``None`` (default) means the
        input has continuous amplitude.  When the input is already coarser
        than or equal to the output the quantizer is transparent and the
        noise is exactly zero.

    Returns
    -------
    NoiseStats
        The PQN-model moments of the error signal.
    """
    rounding = RoundingMode(rounding)
    q_out = quantization_step(output_fractional_bits)
    q_in = quantization_step(input_fractional_bits)

    if q_in >= q_out and input_fractional_bits is not None:
        # Input grid is coarser than (or equal to) the output grid: the
        # quantization is lossless.
        return NoiseStats(mean=0.0, variance=0.0)

    variance = (q_out ** 2 - q_in ** 2) / 12.0
    if rounding is RoundingMode.TRUNCATE:
        mean = -(q_out - q_in) / 2.0
    elif rounding is RoundingMode.ROUND:
        # Ties away from zero (MATLAB round) has an odd characteristic:
        # the ±q_out/2 tie errors cancel in the mean for a sign-symmetric
        # input but contribute q_in**2 / 4 of extra variance.
        mean = 0.0
        variance += q_in ** 2 / 4.0
    else:  # convergent rounding is unbiased
        mean = 0.0
    return NoiseStats(mean=mean, variance=variance)

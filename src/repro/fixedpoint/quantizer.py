"""Vectorized quantization of floating-point signals to a fixed-point grid.

The quantizer is the elementary error source of the whole study: every
fixed-point operation in a signal-flow graph is modelled as the exact
(infinite-precision) operation followed by a quantizer on its output.  The
fixed-point *simulation* method applies these quantizers sample by sample;
the analytical methods replace each of them by an additive noise source
whose first two moments (and PSD) are given by
:mod:`repro.fixedpoint.noise_model`.

A quantizer is a fractional width and a rounding mode: it rounds onto
the grid of ``2**-fractional_bits`` steps and rescales.  It has no
integer width and no overflow handling.  The paper measures precision
errors only and assumes every integer part is sized so that nothing
overflows, so a value of any magnitude is only rounded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class RoundingMode(str, enum.Enum):
    """Supported rounding modes.

    * ``ROUND`` — round to nearest, ties away from zero (MATLAB ``round``
      semantics, the mode used in the paper's experiments).  The rounding
      characteristic is odd — ``round(-x) == -round(x)`` — so ties on the
      negative axis go towards minus infinity.
    * ``TRUNCATE`` — truncation towards minus infinity (two's-complement
      truncation, i.e. ``floor``).
    * ``CONVERGENT`` — round to nearest, ties to even (unbiased).
    """

    ROUND = "round"
    TRUNCATE = "truncate"
    CONVERGENT = "convergent"


def round_half_away(mantissa: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Round to nearest integer with ties going away from zero.

    This is MATLAB's ``round``: an odd characteristic, so ``-0.5`` maps to
    ``-1`` (not ``0`` as the asymmetric ``floor(x + 0.5)`` would give).
    Shared by every data-path and coefficient rounding site of the library
    so that all ``RoundingMode.ROUND`` quantizations agree bit for bit.
    With ``out`` the result is written there, and ``out`` holds the
    magnitudes on the way, so it must not overlap ``mantissa``.
    """
    mantissa = np.asarray(mantissa)
    if out is None:
        return np.copysign(np.floor(np.abs(mantissa) + 0.5), mantissa)
    np.abs(mantissa, out=out)
    np.add(out, 0.5, out=out)
    np.floor(out, out=out)
    return np.copysign(out, mantissa, out=out)


def apply_rounding(mantissa: np.ndarray, mode: RoundingMode,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Apply one :class:`RoundingMode` to an array of step mantissas.

    With ``out`` (a float array shaped like ``mantissa`` that does not
    overlap it) the rounded mantissas are written there and no array is
    allocated; the bits are those of the allocating form.
    """
    if out is not None and np.may_share_memory(out, mantissa):
        raise ValueError("out must not overlap the mantissas it rounds")
    if mode is RoundingMode.ROUND:
        return round_half_away(mantissa, out=out)
    if mode is RoundingMode.TRUNCATE:
        return np.floor(mantissa, out=out)
    if mode is RoundingMode.CONVERGENT:
        return np.rint(mantissa, out=out)  # ties to even
    raise ValueError(f"unknown rounding mode {mode!r}")


@dataclass(frozen=True)
class Quantizer:
    """A quantizer mapping real values onto the grid of a fractional width.

    Parameters
    ----------
    fractional_bits:
        Number of fractional bits; the quantization step is
        ``2**-fractional_bits``.  A negative width is refused.
    rounding:
        Rounding mode applied to the fractional part.

    Examples
    --------
    >>> import numpy as np
    >>> q = Quantizer(3, rounding=RoundingMode.TRUNCATE)
    >>> q(np.array([0.3, -0.3]))
    array([ 0.25 , -0.375])
    """

    fractional_bits: int
    rounding: RoundingMode = RoundingMode.ROUND

    def __post_init__(self) -> None:
        if self.fractional_bits < 0:
            raise ValueError("fractional_bits must be non-negative, "
                             f"got {self.fractional_bits}")

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self.quantize(values)

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Quantize ``values`` and return the result as floating point."""
        values = np.asarray(values, dtype=float)
        return self._rescaled(values / self.step)

    def quantize_complex(self, values: np.ndarray,
                         work: np.ndarray | None = None) -> np.ndarray:
        """Quantize a complex array in place, bit for bit as the literal
        ``quantize(values.real) + 1j * quantize(values.imag)``.

        ``values`` is a complex128 array with a contiguous last axis; it
        is overwritten with the result and returned.  ``work`` is a
        scratch array shaped like ``values`` (allocated when omitted; its
        contents are overwritten).  Both lanes go through the steps of
        :meth:`quantize` on the float64 view, so there is one rounding
        rule.  The literal form promotes ``q(im)`` to complex and
        multiplies it by ``1j``, so its lanes come out as
        ``q(re) + 0.0 * q(im)`` and ``q(im) + 0.0``: the real lane takes
        the sign of a zero from the imaginary one, ``-0.0`` imaginary
        lanes become ``+0.0``, and ``0.0 * inf`` turns a real lane NaN.
        Adding the real array ``0.0 * q(im)`` to ``values`` applies both
        rules in one complex addition.
        """
        lanes = values.view(np.float64)
        scratch = (np.empty(lanes.shape) if work is None
                   else work.view(np.float64))
        mantissa = np.divide(lanes, self.step, out=scratch)
        self._rescaled(mantissa, out=lanes)
        imag = lanes[..., 1::2]
        zero_times_imag = np.multiply(imag, 0.0,
                                      out=scratch[..., :imag.shape[-1]])
        return np.add(values, zero_times_imag, out=values)

    def _rescaled(self, mantissa: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
        """Round and rescale step mantissas (into ``out`` if given)."""
        rounded = apply_rounding(mantissa, self.rounding, out=out)
        return np.multiply(rounded, self.step, out=out)

    @property
    def step(self) -> float:
        """Quantization step (weight of the least-significant bit)."""
        return 2.0 ** (-self.fractional_bits)

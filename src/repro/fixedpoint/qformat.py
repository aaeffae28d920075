"""Q-format (fixed-point data type) description.

A fixed-point number is described here in the classical ``Q(m, n)``
notation: *m* integer bits (excluding the sign bit when the format is
signed) and *n* fractional bits.  The value of a word with integer mantissa
``k`` is ``k * 2**-n``.

The accuracy-evaluation techniques of the paper only care about the
quantization *step* (``2**-n``): they measure precision errors and
assume every integer part is sized so that nothing overflows.  The
integer width labels the format and counts towards its word length.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class QFormat:
    """Description of a fixed-point data type.

    Parameters
    ----------
    integer_bits:
        Number of bits devoted to the integer part, *excluding* the sign
        bit for signed formats.  May be negative, which is occasionally
        useful for signals known to be much smaller than one.
    fractional_bits:
        Number of bits devoted to the fractional part.  The quantization
        step is ``2**-fractional_bits``.
    signed:
        Whether the format carries a sign bit (two's complement).

    Examples
    --------
    >>> fmt = QFormat(integer_bits=2, fractional_bits=5)
    >>> fmt.step
    0.03125
    >>> fmt.total_bits
    8
    """

    integer_bits: int
    fractional_bits: int
    signed: bool = True

    def __post_init__(self) -> None:
        if self.fractional_bits < 0:
            raise ValueError("fractional_bits must be non-negative, "
                             f"got {self.fractional_bits}")
        if self.total_bits <= 0:
            raise ValueError(
                "QFormat must contain at least one bit "
                f"(integer_bits={self.integer_bits}, "
                f"fractional_bits={self.fractional_bits}, signed={self.signed})")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def total_bits(self) -> int:
        """Total word length, including the sign bit when signed."""
        return self.integer_bits + self.fractional_bits + (1 if self.signed else 0)

    @property
    def step(self) -> float:
        """Quantization step (weight of the least-significant bit)."""
        return 2.0 ** (-self.fractional_bits)

    def __str__(self) -> str:  # pragma: no cover - trivial
        sign = "s" if self.signed else "u"
        return f"Q{sign}({self.integer_bits},{self.fractional_bits})"

"""Lifting-scheme implementation of the 9/7 wavelet transform.

JPEG-2000 implementations rarely use the convolution filter bank of
Fig. 3 directly: the 9/7 transform is factored into four *lifting steps*
(predict / update passes) plus a scaling step, which halves the number of
multiplications and guarantees perfect reconstruction structurally — the
inverse simply replays the steps with opposite signs, whatever the
coefficient precision.

This module provides that alternative realization with the same optional
per-operation quantization hooks as the convolution engine, so the
fixed-point behaviour of the two realizations can be compared (see
``benchmarks/test_ablation_lifting_vs_convolution.py``): the lifting
structure injects one quantization-noise source per lifting step (four
steps plus two scalings per level and direction) instead of one per
filtering operation, and the measured output noise of both realizations
scales identically with the word length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fixedpoint.quantizer import Quantizer
from repro.systems.dwt.codec import check_image


@dataclass(frozen=True)
class LiftingCoefficients:
    """Lifting constants of the CDF 9/7 factorization."""

    alpha: float = -1.586134342059924
    beta: float = -0.052980118572961
    gamma: float = 0.882911075530934
    delta: float = 0.443506852043971
    scale: float = 1.230174104914001


_DEFAULT = LiftingCoefficients()


def _maybe_quantize(values: np.ndarray, quantizer: Quantizer | None) -> np.ndarray:
    return values if quantizer is None else quantizer.quantize(values)


def _lift(evens: np.ndarray, odds: np.ndarray, coefficient: float,
          quantizer: Quantizer | None, axis: int) -> np.ndarray:
    """One predict/update pass: ``odds += coefficient * (evens + roll(evens))``.

    ``evens`` and ``odds`` are the even- and odd-indexed polyphase
    components along ``axis``; the neighbour of the last odd sample wraps
    around (periodic extension), matching the circular convolution
    convention of the filter-bank engine.
    """
    neighbour = np.roll(evens, -1, axis=axis)
    update = coefficient * (evens + neighbour)
    return _maybe_quantize(odds + update, quantizer)


def _split(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    even_slice = [slice(None)] * x.ndim
    odd_slice = [slice(None)] * x.ndim
    even_slice[axis] = slice(0, None, 2)
    odd_slice[axis] = slice(1, None, 2)
    return x[tuple(even_slice)], x[tuple(odd_slice)]


def _merge(evens: np.ndarray, odds: np.ndarray, axis: int) -> np.ndarray:
    shape = list(evens.shape)
    shape[axis] = evens.shape[axis] + odds.shape[axis]
    merged = np.zeros(shape, dtype=float)
    even_slice = [slice(None)] * merged.ndim
    odd_slice = [slice(None)] * merged.ndim
    even_slice[axis] = slice(0, None, 2)
    odd_slice[axis] = slice(1, None, 2)
    merged[tuple(even_slice)] = evens
    merged[tuple(odd_slice)] = odds
    return merged


def lifting_analyze_1d(x: np.ndarray, axis: int = -1,
                       quantizer: Quantizer | None = None,
                       coefficients: LiftingCoefficients = _DEFAULT
                       ) -> tuple[np.ndarray, np.ndarray]:
    """One level of 9/7 analysis along ``axis`` using lifting.

    Returns ``(low_band, high_band)``, each half the length of the input
    along ``axis`` (the input length must be even).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[axis] % 2:
        raise ValueError("the lifting transform needs an even length along "
                         f"axis {axis}, got {x.shape[axis]}")
    evens, odds = _split(x, axis)
    c = coefficients

    # Predict 1 / update 1 / predict 2 / update 2.
    odds = _lift(evens, odds, c.alpha, quantizer, axis)
    evens = _update_even(evens, odds, c.beta, quantizer, axis)
    odds = _lift(evens, odds, c.gamma, quantizer, axis)
    evens = _update_even(evens, odds, c.delta, quantizer, axis)

    low = _maybe_quantize(evens * c.scale, quantizer)
    high = _maybe_quantize(odds / c.scale, quantizer)
    return low, high


def _update_even(evens: np.ndarray, odds: np.ndarray, coefficient: float,
                 quantizer: Quantizer | None, axis: int) -> np.ndarray:
    """Update pass: ``evens += coefficient * (odds + roll(odds, +1))``."""
    neighbour = np.roll(odds, 1, axis=axis)
    return _maybe_quantize(evens + coefficient * (odds + neighbour), quantizer)


def lifting_synthesize_1d(low: np.ndarray, high: np.ndarray, axis: int = -1,
                          quantizer: Quantizer | None = None,
                          coefficients: LiftingCoefficients = _DEFAULT
                          ) -> np.ndarray:
    """Inverse of :func:`lifting_analyze_1d`."""
    c = coefficients
    evens = _maybe_quantize(np.asarray(low, dtype=float) / c.scale, quantizer)
    odds = _maybe_quantize(np.asarray(high, dtype=float) * c.scale, quantizer)

    # Undo the steps in reverse order with opposite signs.
    evens = _update_even(evens, odds, -c.delta, quantizer, axis)
    odds = _lift(evens, odds, -c.gamma, quantizer, axis)
    evens = _update_even(evens, odds, -c.beta, quantizer, axis)
    odds = _lift(evens, odds, -c.alpha, quantizer, axis)
    return _merge(evens, odds, axis)


def lifting_analyze_2d(image: np.ndarray,
                       quantizer: Quantizer | None = None,
                       coefficients: LiftingCoefficients = _DEFAULT
                       ) -> dict[str, np.ndarray]:
    """One level of separable 2-D lifting analysis (rows then columns)."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("expected a 2-D array")
    low_rows, high_rows = lifting_analyze_1d(image, axis=1,
                                             quantizer=quantizer,
                                             coefficients=coefficients)
    ll, lh = lifting_analyze_1d(low_rows, axis=0, quantizer=quantizer,
                                coefficients=coefficients)
    hl, hh = lifting_analyze_1d(high_rows, axis=0, quantizer=quantizer,
                                coefficients=coefficients)
    return {"ll": ll, "lh": lh, "hl": hl, "hh": hh}


def lifting_synthesize_2d(subbands: dict[str, np.ndarray],
                          quantizer: Quantizer | None = None,
                          coefficients: LiftingCoefficients = _DEFAULT
                          ) -> np.ndarray:
    """Inverse of :func:`lifting_analyze_2d`."""
    low_rows = lifting_synthesize_1d(subbands["ll"], subbands["lh"], axis=0,
                                     quantizer=quantizer,
                                     coefficients=coefficients)
    high_rows = lifting_synthesize_1d(subbands["hl"], subbands["hh"], axis=0,
                                      quantizer=quantizer,
                                      coefficients=coefficients)
    return lifting_synthesize_1d(low_rows, high_rows, axis=1,
                                 quantizer=quantizer,
                                 coefficients=coefficients)


class LiftingDwt97Codec:
    """Multi-level 2-D 9/7 codec realized with lifting steps.

    Mirrors the public interface of
    :class:`~repro.systems.dwt.codec.Dwt97Codec` (``run_reference``,
    ``run_fixed_point``, ``error_image``) so the two realizations can be
    compared under identical conditions.
    """

    def __init__(self, fractional_bits: int, levels: int = 2,
                 rounding="round"):
        from repro.fixedpoint.qformat import QFormat
        from repro.fixedpoint.quantizer import RoundingMode

        if levels < 1:
            raise ValueError(f"levels must be at least 1, got {levels}")
        self.fractional_bits = int(fractional_bits)
        self.levels = int(levels)
        self.rounding = RoundingMode(rounding)
        self._quantizer = Quantizer(QFormat(7, self.fractional_bits),
                                    rounding=self.rounding)

    def _transform(self, image: np.ndarray,
                   quantizer: Quantizer | None) -> np.ndarray:
        pyramid = []
        current = np.asarray(image, dtype=float)
        for _ in range(self.levels):
            subbands = lifting_analyze_2d(current, quantizer=quantizer)
            pyramid.append({k: subbands[k] for k in ("lh", "hl", "hh")})
            current = subbands["ll"]
        for detail in reversed(pyramid):
            subbands = {"ll": current, **detail}
            current = lifting_synthesize_2d(subbands, quantizer=quantizer)
        return current

    def run_reference(self, image: np.ndarray) -> np.ndarray:
        """Encode + decode in double precision."""
        return self._transform(image, None)

    def run_fixed_point(self, image: np.ndarray) -> np.ndarray:
        """Encode + decode with every lifting-step output quantized."""
        quantized = self._quantizer.quantize(np.asarray(image, dtype=float))
        return self._transform(quantized, self._quantizer)

    def error_image(self, image: np.ndarray) -> np.ndarray:
        """Output error of the fixed-point realization."""
        image = check_image(image)
        return self.run_fixed_point(image) - self.run_reference(image)

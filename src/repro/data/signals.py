"""Synthetic one-dimensional stimuli.

All generators return float arrays with values bounded by ``amplitude`` so
that overflow never interferes with the precision-only error analysis (the
paper explicitly separates range and precision effects and studies the
latter).  Every generator accepts a ``seed`` for reproducibility.
"""

from __future__ import annotations

import math

import numpy as np


def _rng(seed: int | None) -> np.random.Generator:
    return np.random.default_rng(seed)


def uniform_white_noise(num_samples: int, amplitude: float = 1.0,
                        seed: int | None = None) -> np.ndarray:
    """Uniform white noise in ``[-amplitude, amplitude]``."""
    _check(num_samples, amplitude)
    return _rng(seed).uniform(-amplitude, amplitude, num_samples)


def colored_noise(num_samples: int, exponent: float = 1.0,
                  amplitude: float = 1.0, seed: int | None = None) -> np.ndarray:
    """Power-law (``1/f^exponent``) colored noise.

    ``exponent = 0`` is white noise, ``1`` pink noise and ``2`` brown
    noise.  The record is normalized to the requested peak amplitude.
    """
    _check(num_samples, amplitude)
    rng = _rng(seed)
    white_spectrum = np.fft.rfft(rng.standard_normal(num_samples))
    frequencies = np.fft.rfftfreq(num_samples)
    shaping = np.ones_like(frequencies)
    nonzero = frequencies > 0
    shaping[nonzero] = frequencies[nonzero] ** (-exponent / 2.0)
    shaping[0] = 0.0
    shaped = np.fft.irfft(white_spectrum * shaping, n=num_samples)
    peak = np.max(np.abs(shaped))
    if peak == 0.0:
        return shaped
    return shaped / peak * amplitude


def multitone(num_samples: int, frequencies, amplitude: float = 1.0,
              seed: int | None = None) -> np.ndarray:
    """Sum of sinusoids at the given normalized frequencies (1.0 = Nyquist).

    Random phases make successive draws statistically independent; the sum
    is normalized to the requested peak amplitude.
    """
    _check(num_samples, amplitude)
    rng = _rng(seed)
    n = np.arange(num_samples)
    signal = np.zeros(num_samples)
    for frequency in np.atleast_1d(frequencies):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        signal += np.sin(np.pi * frequency * n + phase)
    peak = np.max(np.abs(signal))
    if peak == 0.0:
        return signal
    return signal / peak * amplitude


def chirp(num_samples: int, start_frequency: float = 0.01,
          end_frequency: float = 0.99, amplitude: float = 1.0) -> np.ndarray:
    """Linear chirp sweeping between two normalized frequencies."""
    _check(num_samples, amplitude)
    n = np.arange(num_samples)
    sweep = start_frequency + (end_frequency - start_frequency) * n / num_samples
    phase = np.pi * np.cumsum(sweep)
    return amplitude * np.sin(phase)


def ar1_process(num_samples: int, pole: float = 0.9, amplitude: float = 1.0,
                seed: int | None = None) -> np.ndarray:
    """First-order autoregressive process (correlated in time).

    Parameters
    ----------
    pole:
        AR(1) coefficient, ``|pole| < 1``; values close to 1 give strongly
        low-pass (image-like) signals.
    """
    _check(num_samples, amplitude)
    if not -1.0 < pole < 1.0:
        raise ValueError(f"pole must be inside (-1, 1), got {pole}")
    rng = _rng(seed)
    innovations = rng.standard_normal(num_samples)
    signal = np.zeros(num_samples)
    for n in range(1, num_samples):
        signal[n] = pole * signal[n - 1] + innovations[n]
    peak = np.max(np.abs(signal))
    if peak == 0.0:
        return signal
    return signal / peak * amplitude


class SignalGenerator:
    """Named-stimulus factory used by the benchmark harnesses.

    Parameters
    ----------
    seed:
        Base seed; successive calls derive independent streams from it.
    """

    KINDS = ("white", "pink", "brown", "multitone", "chirp", "ar1")

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._counter = 0

    def _next_seed(self) -> int:
        self._counter += 1
        return self.seed * 1_000_003 + self._counter

    def generate(self, kind: str, num_samples: int,
                 amplitude: float = 0.9) -> np.ndarray:
        """Generate one stimulus of the requested kind."""
        kind = kind.lower()
        seed = self._next_seed()
        if kind == "white":
            return uniform_white_noise(num_samples, amplitude, seed)
        if kind == "pink":
            return colored_noise(num_samples, 1.0, amplitude, seed)
        if kind == "brown":
            return colored_noise(num_samples, 2.0, amplitude, seed)
        if kind == "multitone":
            return multitone(num_samples, [0.05, 0.12, 0.31, 0.64], amplitude, seed)
        if kind == "chirp":
            return chirp(num_samples, amplitude=amplitude)
        if kind == "ar1":
            return ar1_process(num_samples, 0.95, amplitude, seed)
        raise ValueError(f"unknown stimulus kind {kind!r}; expected one of "
                         f"{self.KINDS}")


def _check(num_samples: int, amplitude: float) -> None:
    if num_samples < 1:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    # NaN fails the comparison; inf, and a range [-amplitude, amplitude]
    # wider than a double holds, fail the second test.
    if not (amplitude > 0 and math.isfinite(2.0 * float(amplitude))):
        raise ValueError(
            f"amplitude must be positive with 2 * amplitude finite, got "
            f"{amplitude}")

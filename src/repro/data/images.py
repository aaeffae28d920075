"""Synthetic grayscale images replacing the USC-SIPI / Brodatz corpora.

The DWT experiment of the paper (Fig. 3 / Fig. 7) runs on 196 grayscale
photographs and texture images.  What the accuracy analysis actually needs
from those images is a realistic *spatial spectrum* (strongly low-pass
with residual texture energy) and a bounded dynamic range; the generators
below provide surrogates with exactly those properties:

* :func:`natural_image` — 2-D ``1/f``-spectrum random fields, the standard
  statistical model of natural photographs;
* :func:`texture_image` — oriented band-pass random fields mimicking
  Brodatz-style textures;
* :func:`gradient_image` — deterministic ramps exercising DC-dominant
  content.

All images are returned as float arrays in ``[0, 1)`` so they can be fed
directly to the fixed-point codec (which interprets them as Q0.d values).
"""

from __future__ import annotations

import numpy as np


def _rng(seed: int | None) -> np.random.Generator:
    return np.random.default_rng(seed)


def _normalize(image: np.ndarray, low: float = 0.0,
               high: float = 0.999) -> np.ndarray:
    minimum = float(np.min(image))
    maximum = float(np.max(image))
    if maximum == minimum:
        return np.full_like(image, (low + high) / 2.0)
    return low + (image - minimum) * (high - low) / (maximum - minimum)


def natural_image(size: int = 128, exponent: float = 2.0,
                  seed: int | None = None) -> np.ndarray:
    """Random field with an isotropic ``1/f^exponent`` power spectrum."""
    _check_size(size)
    rng = _rng(seed)
    spectrum = np.fft.fft2(rng.standard_normal((size, size)))
    fy = np.fft.fftfreq(size)[:, None]
    fx = np.fft.fftfreq(size)[None, :]
    radius = np.sqrt(fx ** 2 + fy ** 2)
    shaping = np.zeros_like(radius)
    nonzero = radius > 0
    shaping[nonzero] = radius[nonzero] ** (-exponent / 2.0)
    image = np.real(np.fft.ifft2(spectrum * shaping))
    return _normalize(image)


def texture_image(size: int = 128, orientation: float = 0.0,
                  center_frequency: float = 0.2, bandwidth: float = 0.1,
                  seed: int | None = None) -> np.ndarray:
    """Oriented band-pass random field (Brodatz-like texture surrogate).

    Parameters
    ----------
    size:
        Image side length.
    orientation:
        Dominant texture orientation in radians.
    center_frequency:
        Radial center frequency of the texture energy (cycles/pixel).
    bandwidth:
        Radial bandwidth of the texture energy.
    """
    _check_size(size)
    rng = _rng(seed)
    spectrum = np.fft.fft2(rng.standard_normal((size, size)))
    fy = np.fft.fftfreq(size)[:, None]
    fx = np.fft.fftfreq(size)[None, :]
    radius = np.sqrt(fx ** 2 + fy ** 2)
    angle = np.arctan2(fy, fx)
    radial = np.exp(-0.5 * ((radius - center_frequency) / bandwidth) ** 2)
    angular = np.cos(angle - orientation) ** 2
    image = np.real(np.fft.ifft2(spectrum * radial * angular))
    # Add a low-pass pedestal so the image keeps natural-image DC content.
    pedestal = natural_image(size, exponent=2.0,
                             seed=None if seed is None else seed + 17)
    return _normalize(0.7 * _normalize(image) + 0.3 * pedestal)


def gradient_image(size: int = 128, direction: str = "diagonal") -> np.ndarray:
    """Smooth deterministic gradient (DC-dominant content)."""
    _check_size(size)
    ramp = np.linspace(0.0, 0.999, size)
    if direction == "horizontal":
        return np.tile(ramp, (size, 1))
    if direction == "vertical":
        return np.tile(ramp[:, None], (1, size))
    if direction == "diagonal":
        return _normalize(ramp[None, :] + ramp[:, None])
    raise ValueError(f"unknown gradient direction {direction!r}")


class ImageGenerator:
    """Factory producing a corpus of surrogate images.

    ``corpus(count)`` mixes natural, texture and structured images in
    roughly the proportion of the photographic/texture databases used in
    the paper.
    """

    def __init__(self, size: int = 128, seed: int = 0):
        _check_size(size)
        self.size = size
        self.seed = seed

    def corpus(self, count: int) -> list[np.ndarray]:
        """Generate ``count`` images (deterministic for a given seed)."""
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        images: list[np.ndarray] = []
        for index in range(count):
            style = index % 4
            seed = self.seed * 7919 + index
            if style == 0:
                images.append(natural_image(self.size, 2.0, seed))
            elif style == 1:
                images.append(natural_image(self.size, 1.5, seed))
            elif style == 2:
                orientation = (index % 8) * np.pi / 8.0
                images.append(texture_image(self.size, orientation,
                                            0.15 + 0.02 * (index % 5),
                                            0.08, seed))
            else:
                images.append(gradient_image(self.size,
                                             ("horizontal", "vertical",
                                              "diagonal")[index % 3]))
        return images


def _check_size(size: int) -> None:
    if size < 8:
        raise ValueError(f"image size must be at least 8, got {size}")

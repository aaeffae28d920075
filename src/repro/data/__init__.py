"""Synthetic data substrate.

The paper's experiments use long random/real-world stimuli (10^6 samples
for the filter bank, 10^7 for the frequency-domain filter, and 196
grayscale images from the USC-SIPI / RPI-CIPR / Brodatz corpora for the
DWT codec).  Those corpora are not redistributable, so this subpackage
generates synthetic surrogates with the statistical properties the
experiments rely on: wide-band excitation for the filters and
low-pass / textured spatial spectra for the images.
"""

from repro.data.signals import (
    SignalGenerator,
    ar1_process,
    chirp,
    colored_noise,
    multitone,
    uniform_white_noise,
)
from repro.data.images import (
    ImageGenerator,
    gradient_image,
    natural_image,
    texture_image,
)

__all__ = [
    "SignalGenerator",
    "uniform_white_noise",
    "colored_noise",
    "multitone",
    "chirp",
    "ar1_process",
    "ImageGenerator",
    "natural_image",
    "texture_image",
    "gradient_image",
]

"""Unit tests for the surrogate image generators."""

import numpy as np
import pytest

from repro.data.images import (
    ImageGenerator,
    gradient_image,
    natural_image,
    texture_image,
)


class TestIndividualGenerators:
    def test_natural_image_shape_and_range(self):
        image = natural_image(64, seed=0)
        assert image.shape == (64, 64)
        assert np.min(image) >= 0.0
        assert np.max(image) < 1.0

    def test_natural_image_reproducible(self):
        np.testing.assert_array_equal(natural_image(32, seed=4),
                                      natural_image(32, seed=4))

    def test_natural_image_is_lowpass(self):
        """Most spectral energy of a 1/f^2 field sits at low frequencies."""
        image = natural_image(128, exponent=2.0, seed=1)
        spectrum = np.abs(np.fft.fft2(image - np.mean(image))) ** 2
        total = np.sum(spectrum)
        low = np.sum(spectrum[:8, :8]) + np.sum(spectrum[-8:, :8]) + \
            np.sum(spectrum[:8, -8:]) + np.sum(spectrum[-8:, -8:])
        assert low > 0.5 * total

    def test_texture_image_range(self):
        image = texture_image(64, orientation=0.5, seed=2)
        assert image.shape == (64, 64)
        assert np.min(image) >= 0.0
        assert np.max(image) < 1.0

    def test_gradient_directions(self):
        horizontal = gradient_image(32, "horizontal")
        vertical = gradient_image(32, "vertical")
        assert np.allclose(horizontal[0], horizontal[-1])
        assert np.allclose(vertical[:, 0], vertical[:, -1])
        with pytest.raises(ValueError):
            gradient_image(32, "radial")

    def test_too_small_size_rejected(self):
        with pytest.raises(ValueError):
            natural_image(4)


class TestImageGenerator:
    def test_corpus_size_and_determinism(self):
        generator = ImageGenerator(size=32, seed=9)
        corpus_a = generator.corpus(8)
        corpus_b = ImageGenerator(size=32, seed=9).corpus(8)
        assert len(corpus_a) == 8
        for a, b in zip(corpus_a, corpus_b):
            np.testing.assert_array_equal(a, b)

    def test_corpus_contains_varied_content(self):
        corpus = ImageGenerator(size=32, seed=0).corpus(8)
        variances = [float(np.var(image)) for image in corpus]
        assert max(variances) > min(variances)

    def test_all_images_in_unit_range(self):
        for image in ImageGenerator(size=32, seed=3).corpus(12):
            assert np.min(image) >= 0.0
            assert np.max(image) < 1.0

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            ImageGenerator(size=32).corpus(0)

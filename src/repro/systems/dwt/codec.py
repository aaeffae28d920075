"""The 2-level Daubechies 9/7 DWT encoder / decoder system (Fig. 3).

:class:`Dwt97Codec` bundles the three views of the benchmark the
experiments need:

* **reference run** — encode + decode in double precision (with the same
  quantized coefficients as the fixed-point implementation, per the
  library-wide convention that coefficient quantization is a design
  parameter, not a roundoff noise source);
* **fixed-point run** — every filtering operation re-quantizes its output
  to the data word length ``d`` (and the input image is quantized to
  ``d`` as well);
* **analytical estimates** — the proposed PSD method and the PSD-agnostic
  method: one mirror of the codec structure runs on a
  :class:`~repro.systems.dwt.noise_model.SeparableNoiseField` (per-axis
  PSD stacks) or on a :class:`~repro.systems.dwt.noise_model.MomentField`
  (first two moments), both propagated by the SFG walks' rules.

The output error is the difference between the fixed-point and the
reference reconstructions; thanks to perfect reconstruction the reference
equals the input image to within double-precision rounding, so this error
is purely the arithmetic quantization noise of the codec.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np

from repro.analysis.metrics import ed_deviation, noise_power
from repro.analysis.simulation_method import content_digest
from repro.fixedpoint.noise_model import NoiseStats, quantization_noise_stats
from repro.fixedpoint.quantizer import Quantizer, RoundingMode
from repro.obs import metric_inc
from repro.psd.estimation import estimate_psd_2d
from repro.systems.dwt.daubechies97 import WaveletFilters, daubechies_9_7_filters
from repro.systems.dwt.dwt2d import analyze_multilevel, synthesize_multilevel
from repro.systems.dwt.noise_model import MomentField, SeparableNoiseField

_ROW_AXIS = 1
_COLUMN_AXIS = 0

#: The two representations the analytic mirror runs on.
_Field = SeparableNoiseField | MomentField


def check_image(image, index: int | None = None) -> np.ndarray:
    """Return ``image`` as a float array, or raise ``ValueError``.

    Both DWT codecs measure only non-empty, finite 2-D images; ``index``
    names the image's position in the caller's list.  One NaN or inf
    pixel would turn the measured error power and every Ed into NaN
    silently.  min/max propagate NaN and reach +-inf, so they catch both
    without an image-sized mask.
    """
    image = np.asarray(image, dtype=float)
    label = "image" if index is None else f"image {index}"
    if image.ndim != 2 or image.size == 0:
        raise ValueError(f"{label} has shape {image.shape}; the codec needs "
                         "a non-empty 2-D image")
    if not (np.isfinite(image.min()) and np.isfinite(image.max())):
        raise ValueError(f"{label} holds NaN or infinite pixels")
    return image


def _check_images(images) -> list[np.ndarray]:
    if not images:
        raise ValueError("at least one image is required")
    return [check_image(image, index) for index, image in enumerate(images)]


class Dwt97Codec:
    """Fixed-point 2-D Daubechies 9/7 encoder + decoder.

    Parameters
    ----------
    fractional_bits:
        Fractional word length ``d`` shared by every signal (as in the
        paper, where all fractional parts are set to the same value).
    levels:
        Number of decomposition levels (2 in the paper's experiments).
    rounding:
        Rounding mode of every data-path quantizer.
    coefficient_fractional_bits:
        Precision of the stored filter coefficients; defaults to the data
        precision.
    """

    def __init__(self, fractional_bits: int, levels: int = 2,
                 rounding: RoundingMode | str = RoundingMode.ROUND,
                 coefficient_fractional_bits: int | None = None):
        if levels < 1:
            raise ValueError(f"levels must be at least 1, got {levels}")
        self.fractional_bits = int(fractional_bits)
        self.levels = int(levels)
        self.rounding = RoundingMode(rounding)
        self.coefficient_fractional_bits = (
            self.fractional_bits if coefficient_fractional_bits is None
            else int(coefficient_fractional_bits))
        self.filters: WaveletFilters = daubechies_9_7_filters().quantized(
            self.coefficient_fractional_bits)
        # The last simulated power, as one (key, power) entry.
        self._power_memo: tuple | None = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _data_quantizer(self) -> Quantizer:
        return Quantizer(self.fractional_bits, rounding=self.rounding)

    def run_reference(self, image: np.ndarray) -> np.ndarray:
        """Encode + decode in double precision."""
        image = np.asarray(image, dtype=float)
        pyramid = analyze_multilevel(image, self.filters, self.levels)
        return synthesize_multilevel(pyramid, self.filters)

    def run_fixed_point(self, image: np.ndarray) -> np.ndarray:
        """Encode + decode with every operation quantized to ``d`` bits."""
        quantizer = self._data_quantizer()
        image = quantizer.quantize(np.asarray(image, dtype=float))
        pyramid = analyze_multilevel(image, self.filters, self.levels,
                                     quantizer=quantizer)
        return synthesize_multilevel(pyramid, self.filters,
                                     quantizer=quantizer)

    def error_image(self, image: np.ndarray) -> np.ndarray:
        """Output error (fixed-point reconstruction minus reference)."""
        image = check_image(image)
        return self.run_fixed_point(image) - self.run_reference(image)

    # ------------------------------------------------------------------
    # Analytical model
    # ------------------------------------------------------------------
    def _source_stats(self) -> NoiseStats:
        """Moments of each elementary quantization-noise source."""
        return quantization_noise_stats(self.fractional_bits,
                                        rounding=self.rounding)

    def _analytic_analyze_2d(self, field: _Field,
                             stats: NoiseStats) -> dict[str, _Field]:
        """Mirror of :func:`~repro.systems.dwt.dwt2d.analyze_2d`."""
        f = self.filters
        low_rows = field.filtered(f.analysis_lowpass, _ROW_AXIS).injected(stats)
        high_rows = field.filtered(f.analysis_highpass, _ROW_AXIS).injected(stats)
        low_rows = low_rows.downsampled(_ROW_AXIS)
        high_rows = high_rows.downsampled(_ROW_AXIS)

        ll = (low_rows.filtered(f.analysis_lowpass, _COLUMN_AXIS)
              .injected(stats).downsampled(_COLUMN_AXIS))
        lh = (low_rows.filtered(f.analysis_highpass, _COLUMN_AXIS)
              .injected(stats).downsampled(_COLUMN_AXIS))
        hl = (high_rows.filtered(f.analysis_lowpass, _COLUMN_AXIS)
              .injected(stats).downsampled(_COLUMN_AXIS))
        hh = (high_rows.filtered(f.analysis_highpass, _COLUMN_AXIS)
              .injected(stats).downsampled(_COLUMN_AXIS))
        return {"ll": ll, "lh": lh, "hl": hl, "hh": hh}

    def _analytic_synthesize_1d(self, low: _Field, high: _Field, axis: int,
                                stats: NoiseStats) -> _Field:
        """Mirror of :func:`~repro.systems.dwt.dwt1d.synthesize_1d`."""
        f = self.filters
        low_part = (low.upsampled(axis)
                    .filtered(f.synthesis_lowpass, axis).injected(stats))
        high_part = (high.upsampled(axis)
                     .filtered(f.synthesis_highpass, axis).injected(stats))
        return low_part.added(high_part)

    def _analytic_synthesize_2d(self, subbands: dict[str, _Field],
                                stats: NoiseStats) -> _Field:
        """Mirror of :func:`~repro.systems.dwt.dwt2d.synthesize_2d`."""
        low_rows = self._analytic_synthesize_1d(subbands["ll"], subbands["lh"],
                                                _COLUMN_AXIS, stats)
        high_rows = self._analytic_synthesize_1d(subbands["hl"], subbands["hh"],
                                                 _COLUMN_AXIS, stats)
        return self._analytic_synthesize_1d(low_rows, high_rows,
                                            _ROW_AXIS, stats)

    def estimate_output_noise(
            self, n_psd: int = 1024,
            method: str = "psd") -> SeparableNoiseField | MomentField:
        """Analytical estimate of the output-error noise field.

        Parameters
        ----------
        n_psd:
            Per-axis PSD resolution (``N_PSD``); ignored by the agnostic
            method.
        method:
            ``psd`` (proposed, a :class:`SeparableNoiseField`) or
            ``agnostic`` (a :class:`MomentField`).
        """
        if method == "psd":
            field = SeparableNoiseField.zero(n_psd)
        elif method == "agnostic":
            field = MomentField()
        else:
            raise ValueError(f"unknown method {method!r}")
        stats = self._source_stats()
        # Input image quantization.
        field = field.injected(stats)

        # Analysis: recurse on the LL band, keeping the detail fields.
        detail_fields: list[dict[str, _Field]] = []
        current = field
        for _ in range(self.levels):
            subbands = self._analytic_analyze_2d(current, stats)
            detail_fields.append({"lh": subbands["lh"],
                                  "hl": subbands["hl"],
                                  "hh": subbands["hh"]})
            current = subbands["ll"]

        # Synthesis: mirror of synthesize_multilevel.
        for detail in reversed(detail_fields):
            subbands = {"ll": current, "lh": detail["lh"],
                        "hl": detail["hl"], "hh": detail["hh"]}
            current = self._analytic_synthesize_2d(subbands, stats)
        return current

    def estimate_error_power(self, n_psd: int = 1024,
                             method: str = "psd") -> float:
        """Scalar output-error power estimate."""
        return self.estimate_output_noise(n_psd, method).total_power

    def estimated_error_psd_2d(self, n_psd: int = 128) -> np.ndarray:
        """Estimated 2-D error spectrum (Fig. 7 right panel), fftshifted."""
        return self.estimate_output_noise(n_psd, "psd").to_psd_2d()

    # ------------------------------------------------------------------
    # Simulation helpers and comparison
    # ------------------------------------------------------------------
    def simulated_error_power(self, images: list[np.ndarray]) -> float:
        """Average output-error power measured over a set of images.

        The codec keeps the last power it simulated: a repeated call on
        the same images, with the same word lengths, rounding, levels and
        filters, returns it without running the codec.
        """
        images = _check_images(images)
        key = self._power_key(images)
        if self._power_memo is not None and self._power_memo[0] == key:
            metric_inc("dwt.power_memo.hits")
            return self._power_memo[1]
        metric_inc("dwt.power_memo.misses")
        powers = [noise_power(self.error_image(image)) for image in images]
        power = float(np.mean(powers))
        self._power_memo = (key, power)
        return power

    def _power_key(self, images: list[np.ndarray]) -> tuple:
        """Everything the two runs read, and the images' content."""
        filters = tuple(value.tobytes() if isinstance(value, np.ndarray)
                        else value for value in astuple(self.filters))
        return (self.fractional_bits, self.rounding, self.levels, filters,
                content_digest((str(index), image)
                               for index, image in enumerate(images)))

    def simulated_error_psd_2d(self, images: list[np.ndarray]) -> np.ndarray:
        """Averaged 2-D periodogram of the output error (Fig. 7 left panel)."""
        images = _check_images(images)
        accumulated = None
        for image in images:
            spectrum = estimate_psd_2d(self.error_image(image))
            accumulated = spectrum if accumulated is None else accumulated + spectrum
        return accumulated / len(images)

    def compare(self, images: list[np.ndarray], n_psd: int = 1024,
                methods=("psd", "agnostic")) -> dict:
        """Simulation-vs-estimation comparison over a set of images.

        Returns a dictionary with the simulated power, one entry per
        method containing the estimated power and the ``Ed`` deviation
        (as a fraction), and the experiment parameters.  The estimates
        run first, so an unknown method raises before any image is
        simulated.
        """
        estimates = {method: self.estimate_error_power(n_psd, method)
                     for method in methods}
        simulated = self.simulated_error_power(images)
        return {
            "system": "dwt97",
            "levels": self.levels,
            "fractional_bits": self.fractional_bits,
            "num_images": len(images),
            "simulated_power": simulated,
            "methods": {
                method: {"estimated_power": estimated,
                         "ed": ed_deviation(simulated, estimated)}
                for method, estimated in estimates.items()},
        }

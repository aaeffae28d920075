"""Unit tests for the fixed-point DWT codec and its noise models."""

import numpy as np
import pytest

from repro.analysis.agnostic_method import evaluate_agnostic
from repro.analysis.psd_method import evaluate_psd
from repro.data.images import ImageGenerator, natural_image
from repro.fixedpoint.noise_model import NoiseStats, quantization_noise_stats
from repro.fixedpoint.quantizer import RoundingMode
from repro.lti.transfer_function import TransferFunction
from repro.obs import observe
from repro.psd.spectrum import DiscretePsd
from repro.sfg.builder import SfgBuilder
from repro.systems.dwt.codec import Dwt97Codec
from repro.systems.dwt.daubechies97 import daubechies_9_7_filters
from repro.systems.dwt.lifting import LiftingDwt97Codec
from repro.systems.dwt.noise_model import MomentField, SeparableNoiseField


class TestSeparableNoiseField:
    def test_zero_field(self):
        field = SeparableNoiseField.zero(64)
        assert field.total_power == 0.0

    def test_injection_accumulates_power(self):
        field = SeparableNoiseField.zero(32).injected(NoiseStats(0.0, 1.0))
        field = field.injected(NoiseStats(0.0, 0.5))
        assert field.variance == pytest.approx(1.5)

    def test_mean_tracking(self):
        field = SeparableNoiseField.zero(32).injected(NoiseStats(-0.25, 0.0))
        assert field.total_power == pytest.approx(0.0625)

    def test_filtering_white_noise_by_energy(self):
        taps = np.array([0.5, 0.5])
        field = SeparableNoiseField.zero(64).injected(NoiseStats(0.0, 1.0))
        filtered = field.filtered(taps, axis=0)
        assert filtered.variance == pytest.approx(0.5, rel=1e-6)

    def test_filtering_affects_requested_axis_only(self):
        taps = np.array([1.0, -1.0])    # DC-blocking filter
        field = SeparableNoiseField.zero(64).injected(NoiseStats(0.0, 1.0))
        filtered_rows = field.filtered(taps, axis=1)
        assert filtered_rows.variance == pytest.approx(2.0, rel=1e-6)

    def test_downsample_preserves_power_upsample_halves(self):
        field = SeparableNoiseField.zero(64).injected(NoiseStats(0.0, 1.0))
        assert field.downsampled(0).variance == pytest.approx(1.0)
        assert field.upsampled(0).variance == pytest.approx(0.5)

    def test_added_fields_combine(self):
        a = SeparableNoiseField.zero(32).injected(NoiseStats(0.1, 1.0))
        b = SeparableNoiseField.zero(32).injected(NoiseStats(-0.1, 2.0))
        total = a.added(b)
        assert total.variance == pytest.approx(3.0)
        assert total.mean == pytest.approx(0.0)

    def test_added_requires_matching_bins(self):
        a = SeparableNoiseField.zero(32)
        b = SeparableNoiseField.zero(32).downsampled(0)
        with pytest.raises(ValueError):
            a.added(b)

    def test_agnostic_mode_uses_energy_rule(self):
        taps = np.array([1.0, -1.0])
        field = MomentField().injected(NoiseStats(0.0, 1.0))
        field = field.filtered(taps, axis=0)
        assert field.variance == pytest.approx(2.0)

    def test_2d_map_sums_to_power(self):
        field = SeparableNoiseField.zero(32).injected(NoiseStats(0.1, 1.0))
        grid = field.to_psd_2d()
        assert grid.shape == (32, 32)
        assert np.sum(grid) == pytest.approx(field.total_power)

    @pytest.mark.parametrize("name", ["analysis_lowpass", "analysis_highpass",
                                      "synthesis_lowpass",
                                      "synthesis_highpass"])
    def test_filter_rule_is_the_sfg_walk_rule(self, name):
        # A one-source field filtered along an axis equals the SFG walks'
        # DiscretePsd.filtered on the filter's frequency response, bit for
        # bit, at every bin count the codec uses.
        taps = getattr(daubechies_9_7_filters().quantized(12), name)
        response = TransferFunction(taps, [1.0])
        for n_bins in (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048):
            field = SeparableNoiseField.zero(n_bins).injected(
                NoiseStats(0.0, 1.0 / 3.0))
            profile = field.axes[0].ac[0]
            filtered = field.filtered(taps, axis=0).axes[0].ac[0]
            walked = DiscretePsd(profile).filtered(
                response.frequency_response(n_bins)).ac
            assert filtered.tobytes() == walked.tobytes()


_FILTERS = daubechies_9_7_filters().quantized(12)

#: 1-D chains of the codec's operations: a filter name, "down" or "up".
_CHAINS = {
    **{name: [name] for name in ("analysis_lowpass", "analysis_highpass",
                                 "synthesis_lowpass", "synthesis_highpass")},
    "down": ["down"],
    "up": ["up"],
    "analysis": ["analysis_lowpass", "down", "analysis_highpass", "down"],
    "synthesis": ["up", "synthesis_lowpass", "up", "synthesis_highpass"],
    "round-trip": ["analysis_highpass", "down", "up", "synthesis_highpass",
                   "analysis_lowpass", "down", "up", "synthesis_lowpass"],
}


def _chain_graph(chain, bits, rounding):
    """input (quantized: the one source) -> chain -> output."""
    builder = SfgBuilder("chain")
    signal = builder.input("x", fractional_bits=bits, rounding=rounding)
    for index, op in enumerate(chain):
        name = f"{op}{index}"
        if op == "down":
            signal = builder.downsample(name, signal)
        elif op == "up":
            signal = builder.upsample(name, signal)
        else:
            signal = builder.fir(name, getattr(_FILTERS, op), signal)
    builder.output("y", signal)
    return builder.build()


def _through_chain(field, chain):
    for op in chain:
        if op == "down":
            field = field.downsampled(0)
        elif op == "up":
            field = field.upsampled(0)
        else:
            field = field.filtered(getattr(_FILTERS, op), axis=0)
    return field


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


class TestDwtRulesAreTheSfgWalks:
    """Each DWT rule is the SFG walks' rule, bit for bit: a one-source
    field taken through the codec's operations along one axis equals
    the 1-D graph input -> same operations -> output."""

    @pytest.mark.parametrize("rounding", ["round", "truncate"])
    @pytest.mark.parametrize("n_bins", [16, 64, 1024])
    @pytest.mark.parametrize("chain", list(_CHAINS))
    def test_psd_field_row_is_the_psd_walk(self, chain, n_bins, rounding):
        graph = _chain_graph(_CHAINS[chain], 12, rounding)
        walked = evaluate_psd(graph, n_bins)
        stats = quantization_noise_stats(12, rounding=rounding)
        field = _through_chain(
            SeparableNoiseField.zero(n_bins).injected(stats), _CHAINS[chain])
        assert _bits(field.axes[0].ac[0]) == _bits(walked.ac)
        assert _bits(field.mean) == _bits(walked.mean)

    @pytest.mark.parametrize("rounding", ["round", "truncate"])
    @pytest.mark.parametrize("chain", list(_CHAINS))
    def test_moment_field_is_the_moment_walk(self, chain, rounding):
        graph = _chain_graph(_CHAINS[chain], 12, rounding)
        walked = evaluate_agnostic(graph)
        stats = quantization_noise_stats(12, rounding=rounding)
        field = _through_chain(MomentField().injected(stats), _CHAINS[chain])
        assert _bits(field.mean) == _bits(walked.mean)
        assert _bits(field.variance) == _bits(walked.variance)


class TestCodecExecution:
    def test_reference_is_near_perfect_reconstruction(self, small_image):
        codec = Dwt97Codec(fractional_bits=16, levels=2,
                           coefficient_fractional_bits=24)
        reconstructed = codec.run_reference(small_image)
        np.testing.assert_allclose(reconstructed, small_image, atol=1e-5)

    def test_fixed_point_output_on_grid(self, small_image):
        codec = Dwt97Codec(fractional_bits=10, levels=1)
        output = codec.run_fixed_point(small_image)
        scaled = output * 2 ** 10
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)

    def test_error_shrinks_with_word_length(self, small_image):
        errors = []
        for bits in (8, 12, 16):
            codec = Dwt97Codec(fractional_bits=bits, levels=2)
            errors.append(np.mean(codec.error_image(small_image) ** 2))
        assert errors[0] > errors[1] > errors[2]

    def test_invalid_levels_rejected(self):
        with pytest.raises(ValueError):
            Dwt97Codec(fractional_bits=12, levels=0)


class TestCodecNoiseEstimates:
    def test_psd_estimate_within_one_bit_of_simulation(self):
        codec = Dwt97Codec(fractional_bits=12, levels=2)
        images = ImageGenerator(size=32, seed=1).corpus(3)
        simulated = codec.simulated_error_power(images)
        estimated = codec.estimate_error_power(n_psd=256, method="psd")
        assert estimated == pytest.approx(simulated, rel=0.75)

    def test_estimates_scale_with_word_length(self):
        coarse = Dwt97Codec(fractional_bits=8).estimate_error_power(64, "psd")
        fine = Dwt97Codec(fractional_bits=16).estimate_error_power(64, "psd")
        assert coarse / fine == pytest.approx(4.0 ** 8, rel=0.05)

    def test_agnostic_estimate_available(self):
        codec = Dwt97Codec(fractional_bits=12, levels=2)
        assert codec.estimate_error_power(method="agnostic") > 0.0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            Dwt97Codec(fractional_bits=12).estimate_output_noise(64, "magic")

    def test_compare_reports_ed_per_method(self):
        codec = Dwt97Codec(fractional_bits=12, levels=1)
        images = [natural_image(32, seed=4)]
        result = codec.compare(images, n_psd=128, methods=("psd", "agnostic"))
        assert set(result["methods"]) == {"psd", "agnostic"}
        for entry in result["methods"].values():
            assert np.isfinite(entry["ed"])

    def test_compare_rejects_unknown_method_before_simulating(
            self, monkeypatch):
        codec = Dwt97Codec(fractional_bits=12, levels=1)

        def simulated(image):
            raise AssertionError("an image was simulated")

        monkeypatch.setattr(codec, "error_image", simulated)
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            codec.compare([natural_image(32, seed=4)], n_psd=64,
                          methods=("bogus",))

    def test_compare_requires_images(self):
        codec = Dwt97Codec(fractional_bits=12)
        with pytest.raises(ValueError):
            codec.compare([], n_psd=64)

    def test_estimated_2d_map_shape_and_power(self):
        codec = Dwt97Codec(fractional_bits=12, levels=2)
        grid = codec.estimated_error_psd_2d(n_psd=64)
        assert grid.shape == (64, 64)
        assert np.sum(grid) == pytest.approx(
            codec.estimate_error_power(64, "psd"), rel=1e-6)

    def test_simulated_2d_map_matches_measured_power(self, small_image):
        codec = Dwt97Codec(fractional_bits=10, levels=1)
        grid = codec.simulated_error_psd_2d([small_image])
        measured = np.mean(codec.error_image(small_image) ** 2)
        assert np.sum(grid) == pytest.approx(measured, rel=1e-6)

    def test_truncation_mode_mean_contributes(self):
        codec_round = Dwt97Codec(fractional_bits=12, rounding="round")
        codec_trunc = Dwt97Codec(fractional_bits=12, rounding="truncate")
        power_round = codec_round.estimate_error_power(64, "psd")
        power_trunc = codec_trunc.estimate_error_power(64, "psd")
        assert power_trunc > power_round


class TestCodecPowerMemo:
    """The codec keeps the last power it simulated."""

    @staticmethod
    def _count_error_images(monkeypatch, codec) -> list:
        simulated = []
        real = codec.error_image

        def counting(image):
            simulated.append(image)
            return real(image)

        monkeypatch.setattr(codec, "error_image", counting)
        return simulated

    def test_second_compare_runs_no_error_image(self, monkeypatch):
        images = ImageGenerator(size=32, seed=1).corpus(3)
        codec = Dwt97Codec(fractional_bits=12, levels=2)
        low = codec.compare(images, n_psd=16, methods=("psd",))
        simulated = self._count_error_images(monkeypatch, codec)
        with observe(trace=False) as session:
            high = codec.compare(images, n_psd=256,
                                 methods=("psd", "agnostic"))
        assert simulated == []
        assert session.metrics.flattened() == {"dwt.power_memo.hits": 1}
        fresh = Dwt97Codec(fractional_bits=12, levels=2)
        assert high["simulated_power"] == low["simulated_power"] == \
            fresh.simulated_error_power(images)

    @pytest.mark.parametrize("edit", ["images", "fractional_bits", "levels",
                                      "rounding"])
    def test_edit_misses(self, monkeypatch, edit):
        images = ImageGenerator(size=32, seed=1).corpus(2)
        codec = Dwt97Codec(fractional_bits=12, levels=2)
        codec.simulated_error_power(images)
        if edit == "images":
            images = images[:1]
        else:
            setattr(codec, edit, {"fractional_bits": 10, "levels": 1,
                                  "rounding": RoundingMode.TRUNCATE}[edit])
        simulated = self._count_error_images(monkeypatch, codec)
        power = codec.simulated_error_power(images)
        assert len(simulated) == len(images)
        fresh = Dwt97Codec(fractional_bits=codec.fractional_bits,
                           levels=codec.levels, rounding=codec.rounding,
                           coefficient_fractional_bits=12)
        assert power == fresh.simulated_error_power(images)

    def test_edit_sequence_equals_fresh_codecs(self):
        # Each step edits what the last one measured; the memoized power
        # after each has the bytes of a fresh codec's.
        images = ImageGenerator(size=16, seed=4).corpus(2)
        codec = Dwt97Codec(fractional_bits=12, levels=2)
        steps = [{}, {"fractional_bits": 10},
                 {"rounding": RoundingMode.TRUNCATE}, {"levels": 1}, {}]
        for step, edit in enumerate(steps):
            for name, value in edit.items():
                setattr(codec, name, value)
            subset = images[:1] if step == len(steps) - 1 else images
            fresh = Dwt97Codec(fractional_bits=codec.fractional_bits,
                               levels=codec.levels, rounding=codec.rounding,
                               coefficient_fractional_bits=12)
            for _ in range(2):
                assert codec.simulated_error_power(subset).hex() == \
                    fresh.simulated_error_power(subset).hex()


def _bad_image(kind: str) -> np.ndarray:
    if kind == "1-D":
        return np.zeros(16)
    if kind in ("0x0", "0x8"):
        return np.zeros(tuple(int(n) for n in kind.split("x")))
    image = natural_image(16, seed=3)
    image[5, 7] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[kind]
    return image


BAD_IMAGES = ("nan", "+inf", "-inf", "0x0", "0x8", "1-D")


class TestCodecImageContract:
    """A NaN, inf, empty or non-2-D image raises before any transform."""

    @pytest.mark.parametrize("kind", BAD_IMAGES)
    @pytest.mark.parametrize("entry", [
        "compare", "simulated_error_power", "simulated_error_psd_2d"])
    def test_list_entry_points_name_the_bad_image(self, monkeypatch, entry,
                                                  kind):
        codec = Dwt97Codec(fractional_bits=12)
        transforms = []
        monkeypatch.setattr(codec, "run_fixed_point",
                            lambda image: transforms.append(image))
        images = [natural_image(16, seed=2), _bad_image(kind)]
        with pytest.raises(ValueError, match="image 1 "):
            getattr(codec, entry)(images)
        assert transforms == []

    @pytest.mark.parametrize("kind", BAD_IMAGES)
    @pytest.mark.parametrize("codec", [Dwt97Codec(12), LiftingDwt97Codec(12)],
                             ids=["convolution", "lifting"])
    def test_error_image_rejects(self, codec, kind):
        with pytest.raises(ValueError, match="NaN or infinite|non-empty 2-D"):
            codec.error_image(_bad_image(kind))

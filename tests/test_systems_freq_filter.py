"""Unit tests for the frequency-domain band-pass filtering system (Fig. 2)."""

import numpy as np
import pytest

from repro.data.signals import uniform_white_noise
from repro.systems.freq_filter import (
    FrequencyDomainFilter,
    FrequencyDomainFirNode,
    build_frequency_filter_graph,
    default_frequency_domain_taps,
    default_time_domain_taps,
)
from repro.sfg.nodes import QuantizationSpec


class TestFrequencyDomainFirNode:
    def test_reference_matches_direct_convolution(self, rng):
        taps = default_frequency_domain_taps()
        node = FrequencyDomainFirNode("f", taps, fft_size=16)
        x = rng.uniform(-0.9, 0.9, 400)
        expected = np.convolve(x, taps)[:400]
        np.testing.assert_allclose(node.simulate([x]), expected, atol=1e-10)

    def test_taps_longer_than_fft_rejected(self):
        with pytest.raises(ValueError):
            FrequencyDomainFirNode("f", np.ones(20), fft_size=16)

    def test_fixed_point_output_on_grid(self, rng):
        node = FrequencyDomainFirNode("f", default_frequency_domain_taps(),
                                      fft_size=16,
                                      quantization=QuantizationSpec(10))
        x = np.floor(rng.uniform(-0.9, 0.9, 300) * 2 ** 10) / 2 ** 10
        out = node.simulate_fixed([x])
        scaled = out * 2 ** 10
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)

    def test_fixed_point_error_shrinks_with_precision(self, rng):
        x = rng.uniform(-0.9, 0.9, 2000)
        errors = []
        for bits in (8, 12, 16):
            node = FrequencyDomainFirNode("f", default_frequency_domain_taps(),
                                          fft_size=16,
                                          quantization=QuantizationSpec(bits))
            xq = np.floor(x * 2 ** bits + 0.5) / 2 ** bits
            errors.append(np.mean((node.simulate_fixed([xq])
                                   - node.simulate([xq])) ** 2))
        assert errors[0] > errors[1] > errors[2]

    def test_generated_noise_larger_than_plain_fir(self):
        """The FFT pipeline must inject more noise than a single quantizer."""
        spec = QuantizationSpec(12)
        node = FrequencyDomainFirNode("f", default_frequency_domain_taps(),
                                      fft_size=16, quantization=spec)
        assert node.generated_noise().variance > spec.noise_stats().variance

    def test_generated_noise_zero_without_quantization(self):
        node = FrequencyDomainFirNode("f", default_frequency_domain_taps(),
                                      fft_size=16)
        assert node.generated_noise().variance == 0.0

    def test_internal_noise_model_matches_measurement(self, rng):
        """The lumped FFT/multiply/IFFT noise model should be within ~2x."""
        bits = 12
        node = FrequencyDomainFirNode("f", default_frequency_domain_taps(),
                                      fft_size=16,
                                      quantization=QuantizationSpec(bits))
        x = np.floor(rng.uniform(-0.9, 0.9, 60_000) * 2 ** bits + 0.5) / 2 ** bits
        error = node.simulate_fixed([x]) - node.simulate([x])
        measured = float(np.mean(error[64:] ** 2))
        predicted = node.generated_noise().power
        assert predicted == pytest.approx(measured, rel=1.0)


class TestSystemGraph:
    def test_graph_structure(self):
        graph = build_frequency_filter_graph(fractional_bits=12)
        assert set(graph.nodes) == {"x", "time_fir", "freq_fir", "y"}

    def test_default_designs_have_expected_shapes(self):
        assert len(default_time_domain_taps()) == 16
        assert len(default_frequency_domain_taps()) == 9

    def test_system_is_band_pass(self, rng):
        """Low frequencies and Nyquist must both be attenuated."""
        system = FrequencyDomainFilter(fractional_bits=16)
        n = np.arange(4000)
        dc_like = 0.5 * np.ones(4000)
        nyquist_like = 0.5 * np.cos(np.pi * n)
        mid = 0.5 * np.cos(np.pi * 0.4 * n)
        gain_dc = np.std(system.run_reference(dc_like)[200:])
        gain_nyq = np.std(system.run_reference(nyquist_like)[200:])
        gain_mid = np.std(system.run_reference(mid)[200:])
        assert gain_mid > 5 * gain_dc
        assert gain_mid > 5 * gain_nyq

    def test_compare_produces_sub_one_bit_psd_estimate(self):
        system = FrequencyDomainFilter(fractional_bits=12, n_psd=256)
        x = uniform_white_noise(30_000, seed=11)
        comparison = system.compare(x, methods=("psd", "agnostic"))
        assert comparison.reports["psd"].sub_one_bit
        assert abs(comparison.reports["psd"].ed) < 0.25

    def test_psd_method_beats_agnostic(self):
        """Table II direction: the PSD estimate is closer to simulation."""
        system = FrequencyDomainFilter(fractional_bits=12, n_psd=512)
        x = uniform_white_noise(40_000, seed=5)
        comparison = system.compare(x, methods=("psd", "agnostic"))
        assert abs(comparison.reports["psd"].ed) < abs(
            comparison.reports["agnostic"].ed)

    def test_compare_rejects_non_finite_stimulus(self):
        # One bad sample used to yield a NaN simulated power and NaN Ed.
        system = FrequencyDomainFilter(fractional_bits=12, n_psd=256)
        for bad in (np.nan, np.inf):
            x = uniform_white_noise(20_000, seed=11)
            x[12_345] = bad
            with pytest.raises(ValueError, match="'x' holds NaN"):
                system.compare(x)

    def test_compare_rejects_degenerate_n_psd(self):
        # n_psd=0 used to mean the default; n_psd=2 gives a zero-power
        # Hann window that blanked the simulated error PSD, which
        # simulate measures when asked for it.
        system = FrequencyDomainFilter(fractional_bits=12, n_psd=256)
        x = uniform_white_noise(4_000, seed=11)
        with pytest.raises(ValueError, match="n_psd must be at least 2"):
            system.compare(x, n_psd=0)
        with pytest.raises(ValueError, match="zero power"):
            system.evaluator.simulate({"x": x}, n_psd=2)

    def test_run_helpers_shapes(self, rng):
        system = FrequencyDomainFilter(fractional_bits=10)
        x = rng.uniform(-0.9, 0.9, 500)
        assert len(system.run_reference(x)) == 500
        assert len(system.run_fixed_point(x)) == 500


class TestFftSizeEdit:
    """An in-place ``fft_size`` edit changes the node's own noise, so it
    is part of the node's coefficient state: the next evaluation sees it
    like a fresh plan does."""

    @staticmethod
    def _edited():
        graph = FrequencyDomainFilter(10, n_psd=256).graph
        return graph, graph.node("freq_fir")

    def test_the_edit_reaches_evaluate_psd(self):
        from repro.analysis.psd_method import evaluate_psd
        from repro.sfg.plan import CompiledPlan

        graph, node = self._edited()
        before = evaluate_psd(graph, 256)
        node.fft_size = 32
        after = evaluate_psd(graph, 256)
        fresh = evaluate_psd(CompiledPlan(graph), 256)
        assert after.ac.tobytes() == fresh.ac.tobytes()
        assert after.total_power != before.total_power

    def test_the_edit_reaches_the_noise_moment_cache(self):
        from repro.sfg.plan import CompiledPlan, compile_plan

        graph, node = self._edited()
        plan = compile_plan(graph)
        step = plan.steps[plan.index_of["freq_fir"]]
        before = plan.noise_for_bits(step, 9)
        node.fft_size = 32
        plan.refresh()
        fresh = CompiledPlan(graph)
        expected = fresh.noise_for_bits(fresh.steps[step.index], 9)
        after = plan.noise_for_bits(step, 9)
        assert (after.mean, after.variance) == \
            (expected.mean, expected.variance)
        assert after.variance != before.variance

    def test_the_edit_drops_the_uniform_width_table(self):
        from repro.systems.wordlength import WordLengthOptimizer

        graph, node = self._edited()
        optimizer = WordLengthOptimizer(graph, n_psd=256)
        budget = 1e-6
        optimizer.optimize(budget)
        node.fft_size = 32
        result = optimizer.optimize(budget)
        expected = WordLengthOptimizer(
            FrequencyDomainFilter(10, fft_size=32, n_psd=256).graph,
            n_psd=256).optimize(budget)
        assert result.assignment == expected.assignment
        assert result.noise_power.hex() == expected.noise_power.hex()
        assert result.history == expected.history

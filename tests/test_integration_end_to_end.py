"""End-to-end integration tests across substrates and evaluation methods.

These tests exercise the whole stack the way the benchmark harnesses do:
build a system, simulate it in both precisions, run the analytical
estimators, and check that the paper's qualitative claims hold on small
instances.
"""

import numpy as np
import pytest

from repro import AccuracyEvaluator, quickstart_fir_graph
from repro.analysis.flat_method import evaluate_flat
from repro.analysis.psd_method import evaluate_psd
from repro.analysis.simulation_method import SimulationEvaluator
from repro.data.images import ImageGenerator
from repro.data.signals import SignalGenerator, uniform_white_noise
from repro.lti.fir_design import design_fir_highpass, design_fir_lowpass
from repro.lti.iir_design import design_iir_filter
from repro.sfg.builder import SfgBuilder
from repro.systems.dwt.codec import Dwt97Codec
from repro.systems.freq_filter import FrequencyDomainFilter


class TestQuickstartGraph:
    def test_quickstart_flow(self):
        graph = quickstart_fir_graph(fractional_bits=12)
        evaluator = AccuracyEvaluator(graph, n_psd=256)
        comparison = evaluator.compare(uniform_white_noise(20_000, seed=1),
                                       methods=("psd", "agnostic", "flat"),
                                       discard_transient=32)
        for report in comparison.reports.values():
            assert report.sub_one_bit


class TestFilterChainAgainstSimulation:
    """Every analytical method must track simulation on an LTI chain."""

    @pytest.mark.parametrize("method,tolerance", [("psd", 0.15),
                                                  ("flat", 0.15),
                                                  ("psd_tracked", 0.15)])
    def test_cascade_estimates_close_to_simulation(self, method, tolerance):
        builder = SfgBuilder("cascade")
        x = builder.input("x", fractional_bits=12)
        lp = builder.fir("lp", design_fir_lowpass(21, 0.5), x,
                         fractional_bits=12)
        g = builder.gain("g", 0.75, lp, fractional_bits=12)
        hp = builder.fir("hp", design_fir_highpass(21, 0.3), g,
                         fractional_bits=12)
        builder.output("y", hp)
        graph = builder.build()

        evaluator = AccuracyEvaluator(graph, n_psd=512)
        comparison = evaluator.compare(uniform_white_noise(60_000, seed=3),
                                       methods=(method,),
                                       discard_transient=100)
        assert abs(comparison.reports[method].ed) < tolerance

    def test_iir_chain_estimate(self):
        b, a = design_iir_filter(4, 0.35, "lowpass", "butterworth")
        builder = SfgBuilder("iir-chain")
        x = builder.input("x", fractional_bits=12)
        filt = builder.iir("iir", b, a, x, fractional_bits=12)
        post = builder.fir("post", design_fir_lowpass(11, 0.6), filt,
                           fractional_bits=12)
        builder.output("y", post)
        graph = builder.build()

        evaluator = AccuracyEvaluator(graph, n_psd=1024)
        comparison = evaluator.compare(uniform_white_noise(40_000, seed=9),
                                       methods=("psd",),
                                       discard_transient=500)
        assert comparison.reports["psd"].sub_one_bit
        assert abs(comparison.reports["psd"].ed) < 0.35


class TestFeedbackLoopPipeline:
    @pytest.mark.parametrize("feedback", [0.5, -0.5])
    def test_iir_feedback_then_evaluate(self, feedback):
        """The loop y[n] = x[n] + feedback * y[n-1], written as the IIR
        node 1 / (1 - feedback z^-1) with its quantizer inside the loop,
        feeds the estimators like any other block."""
        builder = SfgBuilder("loop")
        x = builder.input("x", fractional_bits=12)
        loop = builder.iir("loop", [1.0], [1.0, -feedback], x,
                           fractional_bits=12)
        builder.output("y", loop)
        graph = builder.build()

        evaluator = AccuracyEvaluator(graph, n_psd=1024)
        comparison = evaluator.compare(
            uniform_white_noise(40_000, seed=2), methods=("psd",),
            discard_transient=200)
        assert comparison.reports["psd"].sub_one_bit


class TestPaperHeadlineClaims:
    def test_freq_filter_psd_beats_agnostic_across_word_lengths(self):
        """Table II / Fig. 4 direction for the frequency-domain filter."""
        for bits in (10, 14):
            system = FrequencyDomainFilter(fractional_bits=bits, n_psd=256)
            comparison = system.compare(uniform_white_noise(30_000, seed=bits),
                                        methods=("psd", "agnostic"))
            assert abs(comparison.reports["psd"].ed) <= abs(
                comparison.reports["agnostic"].ed) + 0.02

    def test_dwt_psd_estimate_is_sub_one_bit(self):
        """Fig. 4 claim for the DWT: deviation well within one bit."""
        codec = Dwt97Codec(fractional_bits=10, levels=2)
        images = ImageGenerator(size=32, seed=3).corpus(2)
        result = codec.compare(images, n_psd=128, methods=("psd",))
        assert abs(result["methods"]["psd"]["ed"]) < 0.75

    def test_estimation_is_much_faster_than_simulation(self):
        """Fig. 6 claim: analytical evaluation beats Monte-Carlo wall-clock."""
        import time

        graph = quickstart_fir_graph(fractional_bits=12, num_taps=64)
        evaluator = AccuracyEvaluator(graph, n_psd=512)
        stimulus = uniform_white_noise(200_000, seed=4)

        start = time.perf_counter()
        evaluator.simulate(stimulus)
        simulation_time = time.perf_counter() - start

        start = time.perf_counter()
        evaluator.estimate("psd")
        estimation_time = time.perf_counter() - start

        assert estimation_time < simulation_time

    def test_flat_and_psd_equivalent_on_elementary_blocks(self):
        """Section IV-B: strict equivalence on single filter blocks."""
        generator = SignalGenerator(seed=0)
        for taps in (design_fir_lowpass(33, 0.3),
                     design_fir_highpass(33, 0.7)):
            builder = SfgBuilder("elementary")
            x = builder.input("x", fractional_bits=14)
            h = builder.fir("h", taps, x, fractional_bits=14)
            builder.output("y", h)
            graph = builder.build()
            psd = evaluate_psd(graph, 2048).total_power
            flat = evaluate_flat(graph).power
            assert psd == pytest.approx(flat, rel=5e-3)


class TestNumericalRobustness:
    def test_zero_noise_configuration(self):
        """A graph without quantization produces exactly zero estimates."""
        builder = SfgBuilder("exact")
        x = builder.input("x")
        h = builder.fir("h", design_fir_lowpass(9, 0.4), x)
        builder.output("y", h)
        graph = builder.build()
        assert evaluate_psd(graph, 64).total_power == 0.0
        error = SimulationEvaluator(graph).error_signal(
            {"x": uniform_white_noise(1000, seed=0)})
        assert np.max(np.abs(error)) == 0.0

    def test_very_coarse_quantization_still_tracked(self):
        graph = quickstart_fir_graph(fractional_bits=4)
        evaluator = AccuracyEvaluator(graph, n_psd=128)
        comparison = evaluator.compare(uniform_white_noise(30_000, seed=6),
                                       methods=("psd",),
                                       discard_transient=32)
        assert comparison.reports["psd"].sub_one_bit

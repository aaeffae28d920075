"""Unit tests for the second-order-section (cascade) realization."""

import numpy as np
import pytest

from repro.analysis.evaluator import AccuracyEvaluator
from repro.data.signals import uniform_white_noise
from repro.lti.iir_design import design_iir_filter
from repro.lti.sos import (
    build_direct_form_graph,
    build_sos_graph,
    sos_to_tf,
    tf_to_sos,
)
from repro.lti.transfer_function import TransferFunction


class TestFactorization:
    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_cascade_matches_original_response(self, order):
        b, a = design_iir_filter(order, 0.4, "lowpass", "butterworth")
        sections = tf_to_sos(b, a)
        original = TransferFunction(b, a).frequency_response(256)
        cascade = sos_to_tf(sections).frequency_response(256)
        np.testing.assert_allclose(cascade, original, atol=1e-6, rtol=1e-5)

    def test_number_of_sections(self):
        b, a = design_iir_filter(6, 0.3, "lowpass", "butterworth")
        assert tf_to_sos(b, a).shape == (3, 6)

    def test_odd_order_handled(self):
        b, a = design_iir_filter(5, 0.35, "lowpass", "chebyshev1")
        sections = tf_to_sos(b, a)
        cascade = sos_to_tf(sections).frequency_response(128)
        original = TransferFunction(b, a).frequency_response(128)
        np.testing.assert_allclose(cascade, original, atol=1e-6, rtol=1e-4)

    def test_sections_are_individually_stable(self):
        b, a = design_iir_filter(6, 0.45, "lowpass", "chebyshev1")
        for row in tf_to_sos(b, a):
            assert TransferFunction(row[:3], row[3:]).is_stable()

    def test_highpass_and_bandpass_designs(self):
        for kind, cutoff in (("highpass", 0.6), ("bandpass", (0.3, 0.6))):
            b, a = design_iir_filter(4 if kind == "highpass" else 2, cutoff,
                                     kind, "butterworth")
            cascade = sos_to_tf(tf_to_sos(b, a)).frequency_response(128)
            original = TransferFunction(b, a).frequency_response(128)
            np.testing.assert_allclose(cascade, original, atol=1e-6, rtol=1e-4)

    def test_sos_to_tf_validates_shape(self):
        with pytest.raises(ValueError):
            sos_to_tf(np.ones((2, 5)))


class TestSosGraphs:
    def test_graph_structure(self):
        b, a = design_iir_filter(4, 0.4, "lowpass", "butterworth")
        graph = build_sos_graph(b, a, fractional_bits=12)
        biquads = [n for n in graph.nodes if n.startswith("biquad")]
        assert len(biquads) == 2

    def test_reference_output_matches_direct_form(self, rng):
        b, a = design_iir_filter(4, 0.4, "lowpass", "butterworth")
        sos_graph = build_sos_graph(b, a, fractional_bits=20,
                                    rounding="round")
        direct_graph = build_direct_form_graph(b, a, fractional_bits=20)
        from repro.sfg.plan import compile_plan

        x = rng.uniform(-0.9, 0.9, 2000)
        sos_out = compile_plan(sos_graph).run({"x": x}).output("y")
        direct_out = compile_plan(direct_graph).run({"x": x}).output("y")
        # Coefficient quantization differs slightly between the two
        # realizations, so only require close agreement.
        assert np.max(np.abs(sos_out - direct_out)) < 1e-3

    def test_cascade_noise_estimate_tracks_simulation(self):
        b, a = design_iir_filter(4, 0.35, "lowpass", "chebyshev1")
        graph = build_sos_graph(b, a, fractional_bits=12)
        evaluator = AccuracyEvaluator(graph, n_psd=1024)
        comparison = evaluator.compare(uniform_white_noise(40_000, seed=8),
                                       methods=("psd",),
                                       discard_transient=500)
        assert comparison.reports["psd"].sub_one_bit

    def test_cascade_and_direct_form_noise_differ(self):
        """The realization changes the roundoff noise (Jackson, ref. [10])."""
        b, a = design_iir_filter(6, 0.25, "lowpass", "chebyshev1")
        from repro.analysis.psd_method import evaluate_psd

        cascade_power = evaluate_psd(
            build_sos_graph(b, a, fractional_bits=12), 1024).total_power
        direct_power = evaluate_psd(
            build_direct_form_graph(b, a, fractional_bits=12), 1024).total_power
        assert cascade_power != pytest.approx(direct_power, rel=0.05)

"""Double-precision and fixed-point semantics of the FIR and IIR nodes.

Each filter node states its double run, its bit-true run and its
coefficient rounding once; the fixed run shares the double run's rounded
coefficients, so their difference is data-path noise only.
"""

import json

import numpy as np
import pytest

from repro.analysis.simulation_method import SimulationEvaluator
from repro.data.signals import uniform_white_noise
from repro.fixedpoint.quantizer import RoundingMode
from repro.lti.iir_design import design_iir_filter
from repro.sfg.builder import SfgBuilder
from repro.sfg.nodes import FirNode, GainNode, IirNode, QuantizationSpec
from repro.sfg.serialization import graph_from_dict, graph_to_dict


class TestFirNode:
    def test_double_run_matches_convolution(self, rng):
        taps = rng.standard_normal(12)
        x = rng.standard_normal(200)
        expected = np.convolve(x, taps)[:200]
        np.testing.assert_allclose(FirNode("h", taps).simulate([x]), expected)

    def test_invalid_taps_rejected(self):
        with pytest.raises(ValueError):
            FirNode("h", [])

    def test_transfer_function_round_trip(self):
        taps = [0.25, 0.5, 0.25]
        np.testing.assert_array_equal(
            FirNode("h", taps).transfer_function().b, taps)

    def test_fixed_point_output_on_grid(self, rng):
        taps = rng.uniform(-0.5, 0.5, 8)
        x = rng.uniform(-0.9, 0.9, 500)
        y = FirNode("h", taps, QuantizationSpec(10)).simulate_fixed([x])
        mantissa = y * 2 ** 10
        np.testing.assert_allclose(mantissa, np.round(mantissa), atol=1e-9)

    def test_fixed_point_error_bounded(self, rng):
        taps = rng.uniform(-0.5, 0.5, 8)
        x = rng.uniform(-0.9, 0.9, 500)
        spec = QuantizationSpec(12, coefficient_fractional_bits=20)
        reference = np.convolve(x, spec.quantize_coefficients(taps))[:500]
        y = FirNode("h", taps, spec).simulate_fixed([x])
        assert np.max(np.abs(y - reference)) <= 2 ** -12


class TestIirNode:
    def test_double_run_matches_lfilter(self, rng):
        from scipy.signal import lfilter
        b, a = design_iir_filter(4, 0.4, "lowpass", "butterworth")
        x = rng.standard_normal(300)
        np.testing.assert_allclose(IirNode("h", b, a).simulate([x]),
                                   lfilter(b, a, x))

    def test_coefficients_normalized(self):
        tf = IirNode("h", [2.0], [2.0, 1.0]).transfer_function()
        np.testing.assert_allclose(tf.b, [1.0])
        np.testing.assert_allclose(tf.a, [1.0, 0.5])

    def test_zero_leading_denominator_rejected(self):
        with pytest.raises(ValueError):
            IirNode("h", [1.0], [0.0, 1.0])

    def test_noise_shaping_function_is_one_over_a(self):
        b, a = [0.5, 0.5], [1.0, -0.3]
        ntf = IirNode("h", b, a).noise_shaping_function()
        np.testing.assert_allclose(ntf.b, [1.0])
        np.testing.assert_allclose(ntf.a, a)
        # With quantization the shaping uses the rounded denominator:
        # -0.3 at 4 bits is -5/16.
        ntf = IirNode("h", b, a, QuantizationSpec(4)).noise_shaping_function()
        np.testing.assert_array_equal(ntf.a, [1.0, -0.3125])

    def test_fixed_point_output_on_grid(self, rng):
        b, a = design_iir_filter(3, 0.3, "lowpass", "butterworth")
        x = rng.uniform(-0.9, 0.9, 400)
        y = IirNode("h", b, a, QuantizationSpec(10)).simulate_fixed([x])
        mantissa = y * 2 ** 10
        np.testing.assert_allclose(mantissa, np.round(mantissa), atol=1e-9)

    def test_fixed_point_converges_to_reference_with_precision(self, rng):
        b, a = design_iir_filter(2, 0.4, "lowpass", "butterworth")
        x = rng.uniform(-0.9, 0.9, 400)
        errors = []
        for bits in (8, 12, 16, 20):
            node = IirNode("h", b, a, QuantizationSpec(
                bits, coefficient_fractional_bits=24))
            reference = node.simulate([x])
            fixed = node.simulate_fixed([x])
            errors.append(float(np.mean((fixed - reference) ** 2)))
        assert errors[0] > errors[1] > errors[2] > errors[3]

    def test_truncation_mode_biases_output_negative(self, rng):
        x = rng.uniform(-0.9, 0.9, 2000)
        node = IirNode("h", [1.0], [1.0],
                       QuantizationSpec(6, rounding=RoundingMode.TRUNCATE))
        y = node.simulate_fixed([x])
        assert np.mean(y - x) < 0.0


class TestDisabledNodes:
    """Without quantization a node's fixed run is its double run.

    A trivial denominator makes the double run a convolution; ``lfilter``
    sums the same four taps in another order and rounds differently, so
    only one shared path is bitwise equal.
    """

    B = [0.31, -0.17, 0.23, 0.05]

    @pytest.mark.parametrize("a", [[1.0], [1.0, 0.0], [2.0, 0.0, 0.0],
                                   "order-2 design"])
    @pytest.mark.parametrize("shape", [(500,), (2,)])
    def test_iir_fixed_run_is_double_run(self, rng, a, shape):
        # (2,): a stream shorter than the taps and the delay line.
        b = self.B
        if a == "order-2 design":
            b, a = design_iir_filter(2, 0.3, "lowpass", "butterworth")
        node = IirNode("h", b, a)
        x = rng.uniform(-0.9, 0.9, shape)
        np.testing.assert_array_equal(
            node.simulate_fixed([x]).view(np.int64),
            node.simulate([x]).view(np.int64))

    @pytest.mark.parametrize("shape", [(500,), (2,)])
    def test_fir_fixed_run_is_double_run(self, rng, shape):
        node = FirNode("h", rng.standard_normal(9))
        x = rng.uniform(-0.9, 0.9, shape)
        np.testing.assert_array_equal(
            node.simulate_fixed([x]).view(np.int64),
            node.simulate([x]).view(np.int64))

    def test_unquantized_graph_measures_zero_error(self):
        builder = SfgBuilder()
        x = builder.input("x")
        h = builder.iir("h", self.B, [1.0, 0.0], x)
        builder.output("y", h)
        stimulus = {"x": uniform_white_noise(4000, seed=1)}
        result = SimulationEvaluator(builder.build()).evaluate(stimulus)
        assert result.error_power == 0.0


class TestSharedCoefficients:
    """The double and the fixed run use the same rounded coefficients.

    Coefficients pinned at 8 bits move the output by about one coefficient
    LSB (2^-8) from the design's; a 30-bit data path keeps the fixed run
    within a few 2^-30 of the double run.
    """

    @pytest.mark.parametrize("kind", ["gain", "fir", "iir"])
    def test_fixed_run_tracks_the_rounded_double_run(self, rng, kind):
        def build(spec):
            if kind == "gain":
                return GainNode("n", 0.3, spec)
            if kind == "fir":
                return FirNode("n", [0.3, -0.45, 0.2], spec)
            return IirNode("n", [0.3, 0.2], [1.0, -0.45], spec)

        node = build(QuantizationSpec(30, coefficient_fractional_bits=8))
        design = build(QuantizationSpec(None))
        x = rng.uniform(-0.9, 0.9, 2000)
        double = node.simulate([x])
        assert np.max(np.abs(double - design.simulate([x]))) > 2 ** -12
        assert np.max(np.abs(node.simulate_fixed([x]) - double)) < 2 ** -26


class TestUnstableDesignRejected:
    """An IIR design with a pole on or outside the unit circle raises."""

    def test_node(self):
        with pytest.raises(ValueError, match="IIR node 'i' is unstable"):
            IirNode("i", [1.0], [1.0, -1.5], QuantizationSpec(12))
        with pytest.raises(ValueError, match="unstable"):
            IirNode("i", [1.0], [1.0, -1.0])

    def test_builder(self):
        builder = SfgBuilder()
        x = builder.input("x", fractional_bits=12)
        with pytest.raises(ValueError, match="IIR node 'i' is unstable"):
            builder.iir("i", [1.0], [1.0, -1.5], x, fractional_bits=12)

    def test_graph_from_dict(self):
        builder = SfgBuilder()
        x = builder.input("x", fractional_bits=12)
        i = builder.iir("i", [1.0], [1.0, -0.5], x, fractional_bits=12)
        builder.output("y", i)
        data = json.loads(json.dumps(graph_to_dict(builder.build())))
        for node in data["nodes"]:
            if node["name"] == "i":
                node["a"] = [1.0, -1.5]
        with pytest.raises(ValueError, match="IIR node 'i' is unstable"):
            graph_from_dict(data)

    def test_only_the_design_is_checked(self):
        # A coarse coefficient word length may round a pole onto the unit
        # circle; the node still builds, so a word-length search rejects
        # such a candidate by its noise power instead of crashing.
        node = IirNode("i", [0.01], [1.0, -0.99], QuantizationSpec(4))
        assert not node._effective_transfer_function().is_stable()
        node.quantization = node.quantization.with_fractional_bits(3)
        assert not node._effective_transfer_function().is_stable()

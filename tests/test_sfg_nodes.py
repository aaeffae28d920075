"""Unit tests for the SFG node vocabulary."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.agnostic_method import evaluate_agnostic
from repro.analysis.psd_method import evaluate_psd, evaluate_psd_tracked
from repro.fixedpoint.quantizer import Quantizer, RoundingMode
from repro.sfg import nodes
from repro.sfg.graph import SignalFlowGraph
from repro.sfg.nodes import (
    AddNode,
    DelayNode,
    DownsampleNode,
    FirNode,
    GainNode,
    IirNode,
    InputNode,
    LtiNode,
    OutputNode,
    QuantizationSpec,
    UpsampleNode,
)
from repro.lti.transfer_function import TransferFunction


class TestQuantizationSpec:
    def test_disabled_spec(self):
        spec = QuantizationSpec(None)
        assert not spec.enabled
        assert spec.noise_stats().power == 0.0
        with pytest.raises(ValueError):
            spec.quantizer()

    def test_enabled_spec_noise_model(self):
        spec = QuantizationSpec(8, rounding=RoundingMode.ROUND)
        stats = spec.noise_stats()
        assert stats.variance == pytest.approx((2.0 ** -8) ** 2 / 12)
        assert stats.mean == 0.0

    def test_coefficient_bits_default_to_data_bits(self):
        assert QuantizationSpec(10).coeff_bits == 10
        assert QuantizationSpec(10, coefficient_fractional_bits=14).coeff_bits == 14

    def test_quantize_coefficients_rounds_half_away_at_coeff_bits(self):
        # Steps of 1/4; ties go away from zero whatever the data-path
        # rounding mode, and a disabled spec leaves coefficients exact.
        spec = QuantizationSpec(4, rounding=RoundingMode.TRUNCATE,
                                coefficient_fractional_bits=2)
        np.testing.assert_array_equal(
            spec.quantize_coefficients([0.125, -0.125, 0.3, -0.3, 0.6]),
            [0.25, -0.25, 0.25, -0.25, 0.5])
        np.testing.assert_array_equal(
            QuantizationSpec(None, coefficient_fractional_bits=2)
            .quantize_coefficients([0.3]), [0.3])

    def test_with_fractional_bits(self):
        spec = QuantizationSpec(10, rounding=RoundingMode.TRUNCATE)
        changed = spec.with_fractional_bits(6)
        assert changed.fractional_bits == 6
        assert changed.rounding is RoundingMode.TRUNCATE

    def test_with_fractional_bits_preserves_every_field(self):
        """Completeness: a new spec field must survive the copy.

        ``with_fractional_bits`` historically rebuilt the spec field by
        field, so adding a field silently dropped it in every optimizer
        requantize.  Populate each field with a non-default value and
        require the copy to carry all of them.
        """
        import dataclasses

        non_defaults = {
            "fractional_bits": 10,
            "rounding": RoundingMode.TRUNCATE,
            "coefficient_fractional_bits": 13,
            "input_fractional_bits": 9,
            "edge_fractional_bits": {"consumer": 7},
        }
        missing = [f.name for f in dataclasses.fields(QuantizationSpec)
                   if f.name not in non_defaults]
        assert not missing, \
            f"extend this test's non_defaults for new field(s) {missing}"
        spec = QuantizationSpec(**non_defaults)
        changed = spec.with_fractional_bits(6)
        for field in dataclasses.fields(QuantizationSpec):
            if field.name == "fractional_bits":
                assert changed.fractional_bits == 6
            else:
                assert getattr(changed, field.name) \
                    == getattr(spec, field.name), \
                    f"with_fractional_bits dropped {field.name}"

    def test_edge_fractional_bits_normalized_and_queried(self):
        spec = QuantizationSpec(10, edge_fractional_bits={"b": 8, "a": 6})
        assert spec.edge_fractional_bits == (("a", 6), ("b", 8))
        assert spec.edge_bits_for("a") == 6
        assert spec.edge_bits_for("missing") is None
        removed = spec.with_edge_fractional_bits("a", None)
        assert removed.edge_fractional_bits == (("b", 8),)
        widened = spec.with_edge_fractional_bits("c", 12)
        assert widened.edge_bits_for("c") == 12

    def test_duplicate_edge_target_rejected(self):
        with pytest.raises(ValueError, match="duplicate target"):
            QuantizationSpec(10, edge_fractional_bits=(("a", 6), ("a", 8)))

    def test_edge_quantizer_and_noise_stats(self):
        spec = QuantizationSpec(10, rounding=RoundingMode.TRUNCATE,
                                edge_fractional_bits={"b": 8})
        assert spec.edge_quantizer(8).fractional_bits == 8
        assert spec.edge_quantizer(8).rounding is RoundingMode.TRUNCATE
        noisy = spec.edge_noise_stats(8)
        assert noisy.variance > 0.0
        # A tap at (or above) the source width is a numerical no-op.
        assert spec.edge_noise_stats(10).power == 0.0
        assert spec.edge_noise_stats(12).power == 0.0


class TestSpecWidths:
    """Every width is an integer >= 0, checked when the spec is made."""

    @pytest.mark.parametrize("field", ["fractional_bits",
                                       "coefficient_fractional_bits",
                                       "input_fractional_bits"])
    @pytest.mark.parametrize("bits", [-2, -1, 7.5, 8.0, True, False, "8",
                                      np.float64(8)])
    def test_bad_width_names_its_field(self, field, bits):
        widths = {"fractional_bits": 8, field: bits}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            QuantizationSpec(**widths)

    @pytest.mark.parametrize("bits", [-1, 7.5, True, "8"])
    def test_bad_tap_width_names_field_and_target(self, bits):
        with pytest.raises(ValueError, match="^edge_fractional_bits toward "
                                             "'g1' must be an integer"):
            QuantizationSpec(8, edge_fractional_bits={"g2": 4, "g1": bits})
        with pytest.raises(ValueError, match="toward 'g1'"):
            QuantizationSpec(None).with_edge_fractional_bits("g1", bits)

    def test_bad_width_through_a_copy(self):
        spec = QuantizationSpec(8)
        with pytest.raises(ValueError, match="^fractional_bits"):
            spec.with_fractional_bits(-1)
        with pytest.raises(ValueError, match="^coefficient_fractional_bits"):
            replace(spec, coefficient_fractional_bits=-2)

    def test_zero_none_and_numpy_integers_accepted(self):
        spec = QuantizationSpec(np.int64(0), coefficient_fractional_bits=0,
                                input_fractional_bits=np.int32(3),
                                edge_fractional_bits={"g": np.int16(2)})
        assert spec.enabled and spec.coeff_bits == 0
        assert spec.edge_fractional_bits == (("g", 2),)
        assert type(spec.edge_fractional_bits[0][1]) is int
        assert not QuantizationSpec(None).enabled


class TestRoundingMode:
    """A spec and a quantizer store the rounding mode as the member,
    whether it was given as the member or as its string value."""

    @pytest.fixture(autouse=True)
    def _cold_quantizer_cache(self):
        nodes._build_quantizer.cache_clear()

    @pytest.mark.parametrize("first, second", [
        ("truncate", RoundingMode.TRUNCATE),
        (RoundingMode.TRUNCATE, "truncate"),
    ])
    def test_string_and_member_build_the_same_quantizer(self, first,
                                                        second):
        values = np.array([0.3, -0.3])
        for rounding in (first, second):
            quantizer = QuantizationSpec(3, rounding=rounding).quantizer()
            assert quantizer.rounding is RoundingMode.TRUNCATE
            np.testing.assert_array_equal(quantizer(values), [0.25, -0.375])

    def test_unknown_mode_names_the_field(self):
        with pytest.raises(ValueError, match="^rounding must be one of "
                                             "'round', 'truncate', "
                                             "'convergent', got 'floor'$"):
            QuantizationSpec(3, rounding="floor")
        with pytest.raises(ValueError, match="^rounding must be one of"):
            Quantizer(3, rounding="floor")


class TestSimulationBehaviour:
    def test_add_node_sums_with_signs(self):
        node = AddNode("sum", num_inputs=2, signs=[1.0, -1.0])
        out = node.simulate([np.array([1.0, 2.0]), np.array([0.5, 0.5])])
        np.testing.assert_allclose(out, [0.5, 1.5])

    def test_add_node_zero_extends_shorter_inputs(self):
        # Rate changes can leave operands of different lengths: the sum
        # is as long as the longest, the shorter read as zeros past
        # their end.
        node = AddNode("sum", num_inputs=2, signs=[1.0, -1.0])
        out = node.simulate([np.array([1.0, 2.0, 3.0]),
                             np.array([0.5, 0.5, 0.5, 0.5, 0.5])])
        np.testing.assert_array_equal(out, [0.5, 1.5, 2.5, -0.5, -0.5])

    def test_add_node_sign_count_checked(self):
        with pytest.raises(ValueError):
            AddNode("sum", num_inputs=2, signs=[1.0])

    def test_gain_node_uses_quantized_coefficient(self):
        node = GainNode("g", 0.3, QuantizationSpec(2))
        out = node.simulate([np.array([1.0])])
        assert out[0] == pytest.approx(0.25)

    def test_delay_node_shifts(self):
        node = DelayNode("d", 2)
        out = node.simulate([np.arange(5, dtype=float)])
        np.testing.assert_allclose(out, [0, 0, 0, 1, 2])

    @pytest.mark.parametrize("delay", [3, 7])
    def test_delay_at_least_the_stream_is_all_zeros(self, delay):
        node = DelayNode("d", delay)
        out = node.simulate([np.arange(1, 4, dtype=float)])
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_delay_zero_is_identity(self):
        node = DelayNode("d", 0)
        np.testing.assert_allclose(node.simulate([np.arange(3, dtype=float)]),
                                   [0, 1, 2])

    def test_fir_node_simulate_fixed_on_grid(self, rng):
        node = FirNode("h", [0.3, 0.3, 0.3], QuantizationSpec(8))
        out = node.simulate_fixed([rng.uniform(-1, 1, 100)])
        scaled = out * 2 ** 8
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)

    def test_iir_node_simulate_fixed_on_grid(self, rng):
        node = IirNode("h", [0.2, 0.2], [1.0, -0.5], QuantizationSpec(8))
        out = node.simulate_fixed([rng.uniform(-1, 1, 100)])
        scaled = out * 2 ** 8
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)

    def test_downsample_and_upsample_nodes(self):
        down = DownsampleNode("d", 2)
        up = UpsampleNode("u", 2)
        x = np.arange(8, dtype=float)
        np.testing.assert_allclose(down.simulate([x]), [0, 2, 4, 6])
        np.testing.assert_allclose(up.simulate([np.array([1.0, 2.0])]),
                                   [1, 0, 2, 0])

    def test_lti_node_filters(self, rng):
        tf = TransferFunction([1.0], [1.0, -0.5])
        node = LtiNode("l", tf)
        x = rng.standard_normal(50)
        np.testing.assert_allclose(node.simulate([x]), tf.filter(x))

    def test_output_node_passthrough(self):
        node = OutputNode("y")
        np.testing.assert_allclose(node.simulate([np.array([1.0, 2.0])]),
                                   [1.0, 2.0])

    def test_input_node_cannot_simulate(self):
        with pytest.raises(RuntimeError):
            InputNode("x").simulate([])


#: Truncation noise of the one-node graphs' inputs: a non-zero mean.
_INPUT_SPEC = QuantizationSpec(4, RoundingMode.TRUNCATE)
_INPUT_NOISE = _INPUT_SPEC.noise_stats()


def _one_node_graph(node, input_spec=_INPUT_SPEC):
    """One quantized input per port of ``node``, which feeds output ``y``."""
    graph = SignalFlowGraph("one-node")
    graph.add_node(node)
    for port in range(node.num_inputs):
        graph.add_node(InputNode(f"x{port}", input_spec))
        graph.connect(f"x{port}", node.name, port)
    graph.add_node(OutputNode("y"))
    graph.connect(node.name, "y")
    return graph


class TestPropagationRules:
    """Each node type's noise rule, through the analytical walks."""

    def test_fir_stats_propagation_uses_energy_and_dc_gain(self):
        stats = evaluate_agnostic(_one_node_graph(FirNode("h", [0.5, 0.5])))
        assert stats.variance == pytest.approx(0.5 * _INPUT_NOISE.variance)
        assert stats.mean == pytest.approx(_INPUT_NOISE.mean)

    def test_fir_psd_propagation_shapes_spectrum(self):
        psd = evaluate_psd(_one_node_graph(FirNode("h", [0.5, 0.5])), 64)
        # |H|^2 at DC is 1, at Nyquist is 0.
        assert psd.ac[0] == pytest.approx(_INPUT_NOISE.variance / 64)
        assert psd.ac[32] == pytest.approx(0.0, abs=1e-12)

    def test_add_node_psd_propagation(self):
        node = AddNode("sum", num_inputs=2, signs=[1.0, -1.0])
        combined = evaluate_psd(_one_node_graph(node), 32)
        assert combined.variance == pytest.approx(2 * _INPUT_NOISE.variance)
        assert _INPUT_NOISE.mean != 0.0
        assert combined.mean == pytest.approx(0.0, abs=1e-15)

    def test_downsample_psd_propagation_halves_bins(self):
        psd = evaluate_psd(_one_node_graph(DownsampleNode("d", 2)), 64)
        assert psd.n_bins == 32
        assert psd.variance == pytest.approx(_INPUT_NOISE.variance)

    def test_upsample_stats_propagation(self):
        stats = evaluate_agnostic(_one_node_graph(UpsampleNode("u", 2)))
        assert stats.variance == pytest.approx(_INPUT_NOISE.variance / 2)
        assert stats.mean == pytest.approx(_INPUT_NOISE.mean / 2)

    def test_multirate_tracked_propagation_not_supported(self):
        graph = _one_node_graph(DownsampleNode("d", 2))
        with pytest.raises(NotImplementedError):
            evaluate_psd_tracked(graph, 16)

    def test_iir_noise_shaping_function(self):
        node = IirNode("h", [1.0], [1.0, -0.5], QuantizationSpec(8))
        shaping = node.noise_shaping_function()
        assert shaping.dc_gain() == pytest.approx(2.0)

    def test_generated_noise_follows_spec(self):
        node = FirNode("h", [1.0], QuantizationSpec(6, RoundingMode.TRUNCATE))
        stats = node.generated_noise()
        assert stats.mean == pytest.approx(-(2.0 ** -6) / 2)

    def test_input_node_zero_propagation(self):
        # An input carries no noise but its own quantizer's.
        def input_graph(spec):
            graph = SignalFlowGraph("input")
            graph.add_node(InputNode("x", spec))
            graph.add_node(OutputNode("y"))
            graph.connect("x", "y")
            return graph

        silent = input_graph(QuantizationSpec(None))
        assert evaluate_agnostic(silent).power == 0.0
        assert evaluate_psd(silent, 16).total_power == 0.0
        quantized = input_graph(QuantizationSpec(8))
        assert evaluate_agnostic(quantized) == QuantizationSpec(8).noise_stats()

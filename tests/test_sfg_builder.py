"""Unit tests for the fluent graph builder."""

import numpy as np
import pytest

from repro.fixedpoint.quantizer import RoundingMode
from repro.lti.transfer_function import TransferFunction
from repro.sfg.builder import SfgBuilder
from repro.sfg.plan import compile_plan
from repro.sfg.nodes import DownsampleNode, UpsampleNode


class TestBuilder:
    def test_minimal_graph(self):
        builder = SfgBuilder("m")
        x = builder.input("x")
        builder.output("y", x)
        graph = builder.build()
        assert graph.input_names() == ["x"]
        assert graph.output_names() == ["y"]

    def test_build_validates(self):
        builder = SfgBuilder()
        builder.input("x")
        # No output -> invalid.
        with pytest.raises(ValueError):
            builder.build()

    def test_quantization_specs_applied(self):
        builder = SfgBuilder()
        x = builder.input("x", fractional_bits=9, rounding="truncate")
        h = builder.fir("h", [1.0], x, fractional_bits=7)
        builder.output("y", h)
        graph = builder.build()
        assert graph.node("x").quantization.fractional_bits == 9
        assert graph.node("x").quantization.rounding is RoundingMode.TRUNCATE
        assert graph.node("h").quantization.fractional_bits == 7

    def test_add_with_signs(self, rng):
        builder = SfgBuilder()
        a = builder.input("a")
        b = builder.input("b")
        s = builder.add("s", [a, b], signs=[1.0, -1.0])
        builder.output("y", s)
        plan = compile_plan(builder.build())
        xa = rng.uniform(-1, 1, 20)
        xb = rng.uniform(-1, 1, 20)
        np.testing.assert_allclose(
            plan.run({"a": xa, "b": xb}).output("y"), xa - xb)

    def test_gain_delay_chain(self, rng):
        builder = SfgBuilder()
        x = builder.input("x")
        g = builder.gain("g", 2.0, x)
        d = builder.delay("d", g, samples=1)
        builder.output("y", d)
        plan = compile_plan(builder.build())
        xin = rng.uniform(-1, 1, 10)
        out = plan.run({"x": xin}).output("y")
        np.testing.assert_allclose(out[1:], 2.0 * xin[:-1])

    def test_iir_and_lti_nodes(self, rng):
        builder = SfgBuilder()
        x = builder.input("x")
        i = builder.iir("i", [1.0], [1.0, -0.5], x)
        l = builder.lti("l", TransferFunction.fir([0.5, 0.5]), i)
        builder.output("y", l)
        graph = builder.build()
        assert graph.node("i").transfer_function().order == 1
        assert graph.node("l").transfer_function().order == 1

    def test_multirate_helpers(self):
        builder = SfgBuilder()
        x = builder.input("x")
        d = builder.downsample("down", x, factor=2)
        u = builder.upsample("up", d, factor=2)
        builder.output("y", u)
        graph = builder.build()
        assert isinstance(graph.node("down"), DownsampleNode)
        assert isinstance(graph.node("up"), UpsampleNode)

    def test_multirate_execution(self):
        builder = SfgBuilder()
        x = builder.input("x")
        d = builder.downsample("down", x, factor=2)
        u = builder.upsample("up", d, factor=2)
        builder.output("y", u)
        plan = compile_plan(builder.build())
        xin = np.arange(8, dtype=float)
        out = plan.run({"x": xin}).output("y")
        np.testing.assert_allclose(out[::2], xin[::2])
        np.testing.assert_allclose(out[1::2], 0.0)

"""Unit tests for interval / affine range analysis."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.fixedpoint.range_analysis import (
    AffineForm,
    Interval,
    analyze_ranges,
    integer_bits_for_range,
    simulate_ranges,
)
from repro.lti.fir_design import design_fir_lowpass
from repro.sfg.builder import SfgBuilder


class TestInterval:
    def test_construction_and_properties(self):
        interval = Interval(-2.0, 3.0)
        assert interval.width == 5.0
        assert interval.magnitude == 3.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_add_sub_neg(self):
        a = Interval(-1.0, 2.0)
        b = Interval(0.5, 1.0)
        assert (a + b) == Interval(-0.5, 3.0)
        assert (a - b) == Interval(-2.0, 1.5)
        assert (-a) == Interval(-2.0, 1.0)

    def test_scaling_flips_with_negative_gain(self):
        assert Interval(-1.0, 2.0).scaled(-2.0) == Interval(-4.0, 2.0)

    def test_interval_product(self):
        assert Interval(-1.0, 2.0) * Interval(-3.0, 0.5) == Interval(-6.0, 3.0)

    def test_hull(self):
        assert Interval(-1.0, 0.0).hull(Interval(2.0, 3.0)) == Interval(-1.0, 3.0)

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-5, 5))
    def test_scaling_contains_scaled_points(self, a, b, gain):
        low, high = min(a, b), max(a, b)
        interval = Interval(low, high)
        scaled = interval.scaled(gain)
        for point in (low, high, (low + high) / 2):
            assert scaled.low <= point * gain <= scaled.high or \
                abs(point * gain - scaled.low) < 1e-9 or \
                abs(point * gain - scaled.high) < 1e-9


class TestAffineForm:
    def test_from_interval_round_trip(self):
        form = AffineForm.from_interval(Interval(-1.0, 3.0))
        recovered = form.to_interval()
        assert recovered.low == pytest.approx(-1.0)
        assert recovered.high == pytest.approx(3.0)

    def test_subtraction_of_identical_forms_cancels(self):
        """The key advantage over interval arithmetic: x - x = 0."""
        form = AffineForm.from_interval(Interval(-1.0, 1.0))
        difference = form - form
        assert difference.radius == pytest.approx(0.0)

    def test_interval_subtraction_does_not_cancel(self):
        interval = Interval(-1.0, 1.0)
        assert (interval - interval).width == pytest.approx(4.0)

    def test_independent_forms_add_radii(self):
        a = AffineForm.from_interval(Interval(-1.0, 1.0))
        b = AffineForm.from_interval(Interval(-2.0, 2.0))
        assert (a + b).radius == pytest.approx(3.0)

    def test_scaling(self):
        form = AffineForm.from_interval(Interval(-1.0, 1.0)).scaled(-3.0)
        assert form.radius == pytest.approx(3.0)


class TestGraphRangeAnalysis:
    def _adder_graph(self):
        builder = SfgBuilder("adder")
        a = builder.input("a")
        b = builder.input("b")
        s = builder.add("sum", [a, b], signs=[1.0, -1.0])
        builder.output("y", s)
        return builder.build()

    def test_interval_propagation_through_adder(self):
        graph = self._adder_graph()
        ranges = analyze_ranges(graph, {"a": (-1.0, 1.0), "b": (-1.0, 1.0)})
        assert ranges["sum"] == Interval(-2.0, 2.0)

    def test_affine_cancellation_on_reconvergent_paths(self):
        """y = x - x is exactly zero; affine analysis proves it."""
        builder = SfgBuilder("cancel")
        x = builder.input("x")
        g1 = builder.gain("g1", 1.0, x)
        g2 = builder.gain("g2", 1.0, x)
        s = builder.add("diff", [g1, g2], signs=[1.0, -1.0])
        builder.output("y", s)
        graph = builder.build()

        interval_result = analyze_ranges(graph, {"x": (-1.0, 1.0)},
                                         method="interval")
        affine_result = analyze_ranges(graph, {"x": (-1.0, 1.0)},
                                       method="affine")
        assert interval_result["diff"].width == pytest.approx(4.0)
        assert affine_result["diff"].width == pytest.approx(0.0)

    def test_fir_uses_l1_gain(self):
        taps = design_fir_lowpass(15, 0.4)
        builder = SfgBuilder("fir")
        x = builder.input("x")
        h = builder.fir("h", taps, x)
        builder.output("y", h)
        graph = builder.build()
        ranges = analyze_ranges(graph, {"x": (-1.0, 1.0)})
        assert ranges["h"].magnitude == pytest.approx(
            float(np.sum(np.abs(taps))))

    def test_ranges_are_sound_versus_simulation(self, rng):
        builder = SfgBuilder("sound")
        x = builder.input("x")
        h = builder.fir("h", design_fir_lowpass(21, 0.3), x)
        g = builder.gain("g", -1.5, h)
        builder.output("y", g)
        graph = builder.build()

        predicted = analyze_ranges(graph, {"x": (-1.0, 1.0)})
        observed = simulate_ranges(graph, {"x": rng.uniform(-1, 1, 5000)})
        for name, interval in observed.items():
            assert predicted[name].low <= interval.low + 1e-9
            assert predicted[name].high >= interval.high - 1e-9

    def test_missing_input_range_rejected(self):
        graph = self._adder_graph()
        with pytest.raises(ValueError):
            analyze_ranges(graph, {"a": (-1.0, 1.0)})

    def test_unknown_method_rejected(self):
        graph = self._adder_graph()
        with pytest.raises(ValueError):
            analyze_ranges(graph, {"a": (0, 1), "b": (0, 1)}, method="monte")

    def test_multirate_nodes_supported(self):
        builder = SfgBuilder("multirate")
        x = builder.input("x")
        d = builder.downsample("down", x)
        u = builder.upsample("up", d)
        builder.output("y", u)
        graph = builder.build()
        ranges = analyze_ranges(graph, {"x": (0.5, 1.0)})
        assert ranges["down"] == Interval(0.5, 1.0)
        assert ranges["up"].low <= 0.0 <= ranges["up"].high


class TestIntegerBits:
    def test_bits_for_unit_range(self):
        assert integer_bits_for_range(Interval(-1.0, 0.999)) == 0
        assert integer_bits_for_range(Interval(-1.5, 1.5)) == 1
        assert integer_bits_for_range(Interval(-3.0, 5.0)) == 3
        # A signed format with k integer bits represents -2**k itself.
        assert integer_bits_for_range(Interval(-2.0, 1.0)) == 1

    def test_zero_range(self):
        assert integer_bits_for_range(Interval(0.0, 0.0)) == 0

    def test_exact_power_of_two_positive_needs_extra_bit(self):
        assert integer_bits_for_range(Interval(0.0, 2.0)) == 2

    @given(st.floats(min_value=-100.0, max_value=100.0),
           st.floats(min_value=-100.0, max_value=100.0))
    def test_width_is_the_least_that_holds_the_range(self, a, b):
        """A signed format with ``k`` integer bits spans ``[-2**k, 2**k)``
        up to the rounding of its top LSB: these integer bits hold the
        range, and one integer bit fewer does not."""
        interval = Interval(min(a, b), max(a, b))
        bits = integer_bits_for_range(interval)
        assert -(2.0 ** bits) <= interval.low
        assert interval.high < 2.0 ** bits
        if bits > 0:
            top = 2.0 ** (bits - 1)
            assert interval.low < -top or interval.high >= top

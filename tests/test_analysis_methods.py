"""Tests of the analytical evaluation engines on graphs with known answers."""

import numpy as np
import pytest

from repro.analysis._engine import stats_row, walk_paths, walk_psd, walk_stats
from repro.analysis.agnostic_method import evaluate_agnostic
from repro.analysis.flat_method import evaluate_flat
from repro.analysis.psd_method import evaluate_psd, evaluate_psd_tracked
from repro.fixedpoint.noise_model import quantization_noise_stats
from repro.fixedpoint.quantizer import RoundingMode
from repro.lti.fir_design import design_fir_highpass, design_fir_lowpass
from repro.sfg.builder import SfgBuilder
from repro.sfg.plan import compile_plan


def _single_fir_graph(bits=10, taps=None):
    builder = SfgBuilder("single-fir")
    x = builder.input("x", fractional_bits=bits)
    h = builder.fir("h", taps if taps is not None else design_fir_lowpass(17, 0.4),
                    x, fractional_bits=bits)
    builder.output("y", h)
    return builder.build()


def _two_stage_graph(bits=10):
    """Low-pass followed by high-pass: the colored-noise scenario."""
    builder = SfgBuilder("two-stage")
    x = builder.input("x", fractional_bits=bits)
    lp = builder.fir("lp", design_fir_lowpass(31, 0.35), x, fractional_bits=bits)
    hp = builder.fir("hp", design_fir_highpass(31, 0.6), lp, fractional_bits=bits)
    builder.output("y", hp)
    return builder.build()


class TestSingleBlockClosedForm:
    def test_psd_matches_closed_form(self):
        """Input source filtered by H plus output source, all white."""
        bits = 10
        graph = _single_fir_graph(bits)
        taps = graph.node("h")._effective_transfer_function().b
        source = quantization_noise_stats(bits)
        expected = source.variance * float(np.dot(taps, taps)) + source.variance
        estimate = evaluate_psd(graph, 1024)
        assert estimate.total_power == pytest.approx(expected, rel=1e-3)

    def test_flat_equals_psd_on_single_block(self):
        """Section IV-B: flat and PSD methods coincide on elementary blocks."""
        graph = _single_fir_graph(12)
        psd = evaluate_psd(graph, 2048).total_power
        flat = evaluate_flat(graph).power
        assert psd == pytest.approx(flat, rel=1e-3)

    def test_agnostic_equals_psd_on_single_block(self):
        graph = _single_fir_graph(12)
        psd = evaluate_psd(graph, 2048).total_power
        agnostic = evaluate_agnostic(graph).power
        assert psd == pytest.approx(agnostic, rel=1e-3)

    def test_tracked_equals_psd_on_feedforward_chain(self):
        graph = _two_stage_graph(12)
        psd = evaluate_psd(graph, 512).total_power
        tracked = evaluate_psd_tracked(graph, 512).total_power
        assert tracked == pytest.approx(psd, rel=1e-9)


class TestColoredNoiseScenario:
    def test_psd_and_agnostic_differ_on_cascade(self):
        """With complementary pass-bands the blind method must deviate."""
        graph = _two_stage_graph(12)
        psd = evaluate_psd(graph, 1024).total_power
        agnostic = evaluate_agnostic(graph).power
        assert abs(agnostic - psd) / psd > 0.05

    def test_flat_matches_psd_on_cascade(self):
        graph = _two_stage_graph(12)
        psd = evaluate_psd(graph, 4096).total_power
        flat = evaluate_flat(graph).power
        assert flat == pytest.approx(psd, rel=0.01)

    def test_psd_accuracy_improves_with_bins(self, rng):
        """Ed against the flat reference shrinks as N_PSD grows."""
        graph = _two_stage_graph(12)
        flat = evaluate_flat(graph).power
        deviations = []
        for n_psd in (16, 64, 256, 1024):
            psd = evaluate_psd(graph, n_psd).total_power
            deviations.append(abs(psd - flat) / flat)
        assert deviations[-1] <= deviations[0]


class TestIirGraphs:
    def test_iir_noise_shaping_included(self):
        """The output-quantizer noise of an IIR block is amplified by 1/A."""
        bits = 10
        builder = SfgBuilder("iir")
        x = builder.input("x", fractional_bits=bits)
        node = builder.iir("h", [1.0], [1.0, -0.9], x, fractional_bits=bits)
        builder.output("y", node)
        graph = builder.build()
        estimate = evaluate_psd(graph, 4096)
        source = quantization_noise_stats(bits)
        shaping_energy = 1.0 / (1.0 - 0.81)
        # Input noise through H (same energy) + own noise through 1/A.
        expected = source.variance * shaping_energy * 2.0
        assert estimate.total_power == pytest.approx(expected, rel=0.02)

    def test_flat_handles_iir(self):
        builder = SfgBuilder("iir")
        x = builder.input("x", fractional_bits=10)
        node = builder.iir("h", [0.5, 0.5], [1.0, -0.6], x, fractional_bits=10)
        builder.output("y", node)
        graph = builder.build()
        assert evaluate_flat(graph).power == pytest.approx(
            evaluate_psd(graph, 4096).total_power, rel=0.02)


class TestReconvergentPaths:
    def _reconvergent_graph(self, bits=10):
        """One noise source reaching the output through two parallel paths."""
        builder = SfgBuilder("reconvergent")
        x = builder.input("x", fractional_bits=bits)
        branch_a = builder.fir("a", [1.0], x)
        branch_b = builder.delay("b", x, samples=1)
        s = builder.add("sum", [branch_a, branch_b])
        builder.output("y", s)
        return builder.build()

    def test_tracked_handles_correlation_exactly(self):
        graph = self._reconvergent_graph()
        source = quantization_noise_stats(10)
        # True output noise: e[n] + e[n-1], power 2 sigma^2 (white e).
        expected = 2.0 * source.variance
        tracked = evaluate_psd_tracked(graph, 256).total_power
        assert tracked == pytest.approx(expected, rel=1e-6)

    def test_uncorrelated_psd_method_also_correct_here(self):
        """For a white source the cross term integrates to zero power...

        ... except it does not vanish bin-per-bin: |1 + e^{-jw}|^2 averages
        to 2, so the scalar power happens to agree while the spectrum
        differs.  Both facts are asserted.
        """
        graph = self._reconvergent_graph()
        psd = evaluate_psd(graph, 256)
        tracked_psd = evaluate_psd_tracked(graph, 256)
        assert psd.total_power == pytest.approx(tracked_psd.total_power,
                                                rel=1e-6)
        assert not np.allclose(psd.ac, tracked_psd.ac, rtol=0.01, atol=0.0)


def _output_paths(graph):
    """Path functions from every noisy node to the output ``y``."""
    plan = compile_plan(graph)
    sources = {step.name for step in plan.noise_steps}
    return walk_paths(plan, sources)[plan.index_of["y"]]


class TestPathFunctions:
    def test_source_paths_enumerated(self):
        graph = _two_stage_graph(10)
        paths = _output_paths(graph)
        assert set(paths) == {"x", "lp", "hp"}

    def test_path_function_composition(self):
        graph = _two_stage_graph(10)
        paths = _output_paths(graph)
        lp = graph.node("lp")._effective_transfer_function()
        hp = graph.node("hp")._effective_transfer_function()
        expected = lp.cascade(hp).energy()
        assert paths["x"].energy() == pytest.approx(expected, rel=1e-9)

    def test_multirate_rejected(self):
        builder = SfgBuilder()
        x = builder.input("x", fractional_bits=8)
        d = builder.downsample("d", x)
        builder.output("y", d)
        graph = builder.build()
        with pytest.raises(NotImplementedError):
            evaluate_flat(graph)
        with pytest.raises(NotImplementedError):
            evaluate_psd_tracked(graph, 64)


class TestPerNodeResults:
    """The plan walks keep one noise value per node, index-aligned with
    the plan's steps; the output estimates read one entry of them."""

    def test_all_nodes_reported(self):
        plan = compile_plan(_two_stage_graph(10))
        psd_all = walk_psd(plan, 128)
        stats_all = walk_stats(plan)
        assert len(psd_all) == len(stats_all) == len(plan.steps)
        assert {step.name for step in plan.steps} == set(plan.graph.nodes)
        output = plan.index_of["y"]
        assert psd_all[output].select(0).allclose(evaluate_psd(plan, 128))
        assert stats_row(stats_all[output]).variance == pytest.approx(
            evaluate_agnostic(plan).variance, rel=1e-12)

    def test_noise_accumulates_along_the_chain(self):
        plan = compile_plan(_two_stage_graph(10))
        psd_all = walk_psd(plan, 128)
        power = {step.name: psd_all[step.index].select(0).total_power
                 for step in plan.steps}
        assert 0.0 < power["x"] <= power["lp"]
        assert power["y"] == pytest.approx(power["hp"], rel=1e-12)


class TestDelay:
    def test_delay_preserves_psd(self):
        """A pure delay has |H|^2 = 1: the noise PSD and mean pass as-is."""
        def graph(samples):
            builder = SfgBuilder(f"delay-{samples}")
            x = builder.input("x", fractional_bits=10,
                              rounding=RoundingMode.TRUNCATE)
            h = builder.fir("h", design_fir_lowpass(9, 0.4), x)
            if samples:
                h = builder.delay("z", h, samples)
            builder.output("y", h)
            return builder.build()

        direct = evaluate_psd(graph(0), 64)
        assert direct.mean != 0.0
        for samples in (1, 5):
            delayed = evaluate_psd(graph(samples), 64)
            assert delayed.allclose(direct)
            assert delayed.mean == pytest.approx(direct.mean, rel=1e-12)


class TestValidation:
    def test_invalid_bins_rejected(self):
        graph = _single_fir_graph()
        with pytest.raises(ValueError):
            evaluate_psd(graph, 1)

    def test_unknown_output_rejected(self):
        graph = _single_fir_graph()
        with pytest.raises(ValueError):
            evaluate_psd(graph, 64, output="nope")
        with pytest.raises(ValueError):
            evaluate_agnostic(graph, output="nope")

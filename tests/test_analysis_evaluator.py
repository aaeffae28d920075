"""Unit tests for the unified AccuracyEvaluator front end."""

import pytest

from repro.analysis.evaluator import AccuracyEvaluator
from repro.analysis.report import AccuracyReport, EstimateResult
from repro.campaign.registry import build_scenario
from repro.data.signals import uniform_white_noise
from repro.lti.fir_design import design_fir_lowpass
from repro.sfg.builder import SfgBuilder
from repro.sfg.plan import CompiledPlan


def _graph(bits=10):
    builder = SfgBuilder("system-under-test")
    x = builder.input("x", fractional_bits=bits)
    h = builder.fir("h", design_fir_lowpass(17, 0.4), x, fractional_bits=bits)
    builder.output("y", h)
    return builder.build()


class TestEstimate:
    def test_all_methods_run(self):
        evaluator = AccuracyEvaluator(_graph(), n_psd=128)
        for method in ("psd", "psd_tracked", "flat", "agnostic"):
            result = evaluator.estimate(method)
            assert result.power > 0.0
            assert result.method == method
            assert result.elapsed_seconds >= 0.0

    def test_psd_bins_recorded(self):
        evaluator = AccuracyEvaluator(_graph(), n_psd=128)
        assert evaluator.estimate("psd").n_psd == 128
        assert evaluator.estimate("psd", n_psd=64).n_psd == 64
        assert evaluator.estimate("flat").n_psd is None

    def test_zero_n_psd_rejected_not_defaulted(self, short_white_noise):
        evaluator = AccuracyEvaluator(_graph(), n_psd=128)
        with pytest.raises(ValueError, match="n_psd must be at least 2"):
            evaluator.estimate("psd", n_psd=0)
        with pytest.raises(ValueError, match="n_psd must be at least 2"):
            evaluator.compare(short_white_noise, methods=("psd",), n_psd=0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            AccuracyEvaluator(_graph()).estimate("magic")


class TestCompare:
    def test_reports_generated_per_method(self, short_white_noise):
        evaluator = AccuracyEvaluator(_graph(), n_psd=128)
        comparison = evaluator.compare(short_white_noise,
                                       methods=("psd", "agnostic"),
                                       discard_transient=32)
        assert set(comparison.reports) == {"psd", "agnostic"}
        assert comparison.simulation.error_power > 0.0

    def test_single_block_estimates_are_sub_one_bit(self, short_white_noise):
        evaluator = AccuracyEvaluator(_graph(), n_psd=256)
        comparison = evaluator.compare(short_white_noise, methods=("psd",),
                                       discard_transient=32)
        report = comparison.reports["psd"]
        assert report.sub_one_bit
        assert abs(report.ed_percent) < 20.0

    def test_describe_mentions_each_method(self, short_white_noise):
        evaluator = AccuracyEvaluator(_graph(), n_psd=64)
        comparison = evaluator.compare(short_white_noise,
                                       methods=("psd", "flat"))
        text = comparison.describe()
        assert "psd" in text and "flat" in text


class TestCompareChecksMethodsFirst:
    """A method ``compare`` cannot run raises before any simulation."""

    @pytest.fixture
    def runs(self, monkeypatch):
        calls = []
        original = CompiledPlan._run

        def counted(plan, inputs, mode, keep_signals):
            calls.append(mode)
            return original(plan, inputs, mode, keep_signals)

        monkeypatch.setattr(CompiledPlan, "_run", counted)
        return calls

    def test_valid_methods_simulate_once(self, runs, short_white_noise):
        AccuracyEvaluator(_graph(), n_psd=64).compare(
            short_white_noise, methods=("psd", "flat"))
        assert sorted(runs) == ["double", "fixed"]

    def test_unknown_method(self, runs, short_white_noise):
        evaluator = AccuracyEvaluator(_graph(), n_psd=64)
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            evaluator.compare(short_white_noise, methods=("bogus",))
        assert runs == []

    def test_single_rate_method_on_multirate_graph(self, runs):
        graph = build_scenario("polyphase_decimator").graph
        evaluator = AccuracyEvaluator(graph, n_psd=64)
        stimulus = {name: uniform_white_noise(4096, seed=1)
                    for name in graph.input_names()}
        with pytest.raises(NotImplementedError, match="multirate node"):
            evaluator.compare(stimulus, methods=("psd", "flat"))
        assert runs == []


class TestReportObjects:
    def test_report_derived_metrics(self):
        estimate = EstimateResult(method="psd", power=2.0, mean=0.0,
                                  variance=2.0, n_psd=64)
        report = AccuracyReport(system="s", simulated_power=1.0,
                                estimate=estimate)
        assert report.ed == pytest.approx(-1.0)
        assert report.ed_percent == pytest.approx(-100.0)
        assert report.sub_one_bit

    def test_describe_contains_flag(self):
        estimate = EstimateResult(method="psd", power=10.0, mean=0.0,
                                  variance=10.0)
        report = AccuracyReport(system="s", simulated_power=1.0,
                                estimate=estimate)
        assert "OVER one bit" in report.describe()


class TestPlanTracking:
    """The evaluator must follow graph rewires with both engines in sync."""

    def test_structural_rewire_rebuilds_simulator(self, rng):
        from repro.analysis.evaluator import AccuracyEvaluator
        from repro.sfg.builder import SfgBuilder
        from repro.sfg.nodes import GainNode, OutputNode

        builder = SfgBuilder("rewire")
        x = builder.input("x", fractional_bits=8)
        h = builder.fir("h", [1.0, 0.25], x, fractional_bits=8)
        builder.output("y", h)
        graph = builder.build()
        evaluator = AccuracyEvaluator(graph, n_psd=64)
        stimulus = rng.uniform(-0.9, 0.9, 20_000)
        evaluator.compare(stimulus, methods=("psd",))

        graph.remove_node("y")
        graph.add_node(GainNode("g", 2.0,
                                quantization=graph.node("h").quantization))
        graph.connect("h", "g")
        graph.add_node(OutputNode("y"))
        graph.connect("g", "y")

        comparison = evaluator.compare(stimulus, methods=("psd",))
        # Simulation and estimate must both describe the rewired system:
        # the x2 gain quadruples the noise power, and the deviation between
        # the two engines stays small.
        assert abs(comparison.reports["psd"].ed_percent) < 15.0

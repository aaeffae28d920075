"""Unit tests for the simulation-based evaluator."""

import numpy as np
import pytest

from repro.analysis.evaluator import AccuracyEvaluator
from repro.analysis.simulation_method import (
    MAX_SIMULATED_FRACTIONAL_BITS,
    SimulationEvaluator,
    check_simulated_word_lengths,
    data_path_word_lengths,
)
from repro.lti.fir_design import design_fir_lowpass
from repro.data.signals import uniform_white_noise
from repro.sfg.builder import SfgBuilder
from repro.sfg.plan import CompiledPlan
from repro.systems.filter_bank import build_filter_graph, generate_iir_bank


def _iir_graph(bits):
    """The first Table-I IIR design (order 2) at ``bits`` fractional bits."""
    return build_filter_graph(generate_iir_bank(1)[0], fractional_bits=bits)


def _graph(bits=8):
    builder = SfgBuilder("sim")
    x = builder.input("x", fractional_bits=bits)
    h = builder.fir("h", design_fir_lowpass(9, 0.5), x, fractional_bits=bits)
    builder.output("y", h)
    return builder.build()


class TestWithGraphs:
    def test_error_signal_length(self, short_white_noise):
        evaluator = SimulationEvaluator(_graph())
        error = evaluator.error_signal(short_white_noise)
        assert len(error) == len(short_white_noise)

    def test_bare_array_accepted_for_single_input(self, short_white_noise):
        evaluator = SimulationEvaluator(_graph())
        result = evaluator.evaluate(short_white_noise)
        assert result.error_power > 0.0

    def test_transient_discard(self, short_white_noise):
        evaluator = SimulationEvaluator(_graph())
        full = evaluator.evaluate(short_white_noise)
        trimmed = evaluator.evaluate(short_white_noise, discard_transient=100)
        assert trimmed.num_samples == full.num_samples - 100

    def test_non_finite_stimulus_rejected(self, short_white_noise):
        evaluator = SimulationEvaluator(_graph())
        for bad in (np.nan, np.inf):
            x = short_white_noise.copy()
            x[7] = bad
            with pytest.raises(ValueError, match="'x' holds NaN"):
                evaluator.evaluate(x)

    def test_transient_longer_than_record_rejected(self):
        evaluator = SimulationEvaluator(_graph())
        with pytest.raises(ValueError):
            evaluator.evaluate(np.zeros(10), discard_transient=10)

    def test_error_psd_returned_when_requested(self, short_white_noise):
        evaluator = SimulationEvaluator(_graph())
        result = evaluator.evaluate(short_white_noise, n_psd=64)
        assert result.error_psd is not None
        assert result.error_psd.n_bins == 64
        assert result.error_psd.total_power == pytest.approx(
            result.error_power, rel=0.05)

    def test_error_variance_property(self, short_white_noise):
        evaluator = SimulationEvaluator(_graph(6))
        result = evaluator.evaluate(short_white_noise)
        assert result.error_variance == pytest.approx(
            result.error_power - result.error_mean ** 2)

    def test_error_power_scales_with_word_length(self, short_white_noise):
        coarse = SimulationEvaluator(_graph(6)).evaluate(short_white_noise)
        fine = SimulationEvaluator(_graph(12)).evaluate(short_white_noise)
        ratio = coarse.error_power / fine.error_power
        assert ratio == pytest.approx(4.0 ** 6, rel=0.5)


def _two_output_graph(bits=8):
    builder = SfgBuilder("two-outputs")
    x = builder.input("x", fractional_bits=bits)
    h = builder.fir("h", design_fir_lowpass(9, 0.5), x, fractional_bits=bits)
    builder.output("y1", h)
    builder.output("y2", x)
    return builder.build()


def _psd_fields(psd):
    return None if psd is None else (psd.ac.tobytes(), psd.mean)


class TestValidation:
    def test_invalid_system_rejected(self):
        with pytest.raises(TypeError):
            SimulationEvaluator(42)

    @pytest.mark.parametrize("entry", ["evaluate", "evaluate_batch",
                                       "simulate", "compare"])
    def test_negative_transient_rejected(self, short_white_noise, entry):
        graph = _graph()
        calls = {
            "evaluate": lambda: SimulationEvaluator(graph).evaluate(
                short_white_noise, discard_transient=-10),
            "evaluate_batch": lambda: SimulationEvaluator(graph)
            .evaluate_batch([{}], short_white_noise, discard_transient=-10),
            "simulate": lambda: AccuracyEvaluator(graph).simulate(
                short_white_noise, discard_transient=-10),
            "compare": lambda: AccuracyEvaluator(graph).compare(
                short_white_noise, discard_transient=-10),
        }
        with pytest.raises(ValueError, match="non-negative"):
            calls[entry]()

    @pytest.mark.parametrize("entry", ["evaluate", "error_signal",
                                       "simulate"])
    def test_stacked_bare_array_rejected(self, entry):
        # A bare array is the single input's stream: a (trials, samples)
        # stack is refused naming that input, not averaged over rows.
        graph = _graph()
        stacked = np.full((2, 64), 0.5)
        calls = {
            "evaluate": lambda: SimulationEvaluator(graph).evaluate(stacked),
            "error_signal": lambda: SimulationEvaluator(graph)
            .error_signal(stacked),
            "simulate": lambda: AccuracyEvaluator(graph).simulate(stacked),
        }
        with pytest.raises(ValueError,
                           match=r"input node 'x' has shape \(2, 64\)"):
            calls[entry]()

    @pytest.mark.parametrize("n_psd", [0, 1, -4])
    def test_bin_count_below_two_rejected(self, short_white_noise, n_psd):
        evaluator = SimulationEvaluator(_graph())
        with pytest.raises(ValueError, match="n_psd must be at least 2"):
            evaluator.evaluate(short_white_noise, n_psd=n_psd)
        with pytest.raises(ValueError, match="n_psd must be at least 2"):
            evaluator.evaluate_batch([{}], short_white_noise, n_psd=n_psd)

    def test_unknown_output_rejected_before_any_run(self, short_white_noise,
                                                    monkeypatch):
        evaluator = SimulationEvaluator(_graph())

        def no_run(*args, **kwargs):
            raise AssertionError("the plan ran before the output check")

        monkeypatch.setattr(evaluator.plan, "_run", no_run)
        match = "'nope' is not an output node"
        with pytest.raises(ValueError, match=match):
            evaluator.evaluate(short_white_noise, output="nope")
        with pytest.raises(ValueError, match=match):
            evaluator.error_signal(short_white_noise, output="nope")
        with pytest.raises(ValueError, match=match):
            evaluator.evaluate_batch([{}], short_white_noise, output="nope")

    def test_word_length_past_double_precision_rejected_before_any_run(
            self, short_white_noise, monkeypatch):
        # At 80 fractional bits the fixed run would equal the double run.
        evaluator = SimulationEvaluator(_iir_graph(80))

        def no_run(*args, **kwargs):
            raise AssertionError("the plan ran before the word-length check")

        monkeypatch.setattr(evaluator.plan, "_run", no_run)
        match = "node '.*' quantizes to 80 fractional bits"
        with pytest.raises(ValueError, match=match):
            evaluator.evaluate(short_white_noise)
        with pytest.raises(ValueError, match=match):
            evaluator.evaluate_batch([{}], short_white_noise)
        shallow = SimulationEvaluator(_iir_graph(12))
        monkeypatch.setattr(shallow.plan, "_run", no_run)
        with pytest.raises(ValueError,
                           match="node 'filter' quantizes to 53"):
            shallow.evaluate_batch([{"filter": 12}, {"filter": 53}],
                                   short_white_noise)

    def test_fanout_tap_past_double_precision_rejected(self,
                                                       short_white_noise):
        graph = _graph(12)
        graph.node("x").quantization = graph.node("x").quantization \
            .with_edge_fractional_bits("h", 60)
        with pytest.raises(ValueError, match="edge 'x->h' quantizes to 60"):
            SimulationEvaluator(graph).evaluate(short_white_noise)

    def test_data_path_word_lengths_name_nodes_and_taps(self):
        builder = SfgBuilder("taps")
        x = builder.input("x", fractional_bits=10)
        h = builder.fir("h", design_fir_lowpass(9, 0.5), x,
                        fractional_bits=8, coefficient_fractional_bits=14)
        builder.output("y", h)
        graph = builder.build()
        graph.node("x").quantization = graph.node("x").quantization \
            .with_edge_fractional_bits("h", 6)
        # Coefficient word lengths are shared by both legs of a run, so
        # only the data path is listed.
        assert data_path_word_lengths(graph) == {
            "x": 10, "x->h": 6, "h": 8, "y": None}

    def test_simulated_word_length_limit_is_inclusive(self):
        limit = MAX_SIMULATED_FRACTIONAL_BITS
        check_simulated_word_lengths({"x": limit, "x->h": limit,
                                      "y": None})
        with pytest.raises(ValueError, match=f"node 'h' quantizes to "
                                             f"{limit + 1}"):
            check_simulated_word_lengths({"x": 8, "h": limit + 1})
        with pytest.raises(ValueError, match=f"edge 'x->h' quantizes to "
                                             f"{limit + 1}"):
            check_simulated_word_lengths({"x->h": limit + 1})

    def test_deep_word_length_within_double_precision_still_measures(self):
        graph = _iir_graph(44)
        stimulus = uniform_white_noise(20_000, seed=0)
        comparison = AccuracyEvaluator(graph, n_psd=256).compare(
            stimulus, methods=("psd",))
        assert comparison.simulation.error_power > 0.0
        assert abs(comparison.reports["psd"].ed_percent) < 10.0

    def test_multi_output_graph_needs_an_output_name(self, short_white_noise):
        evaluator = SimulationEvaluator(_two_output_graph())
        with pytest.raises(ValueError, match="specify which"):
            evaluator.error_signal(short_white_noise)
        assert evaluator.evaluate(short_white_noise,
                                  output="y2").error_power > 0.0


class TestOneMeasurementPath:
    @pytest.mark.parametrize("fresh", [False, True])
    def test_evaluate_equals_one_config_batch(self, short_white_noise,
                                              fresh):
        # On one evaluator the batch reads the reference run the single
        # measurement kept; on two fresh ones each runs its own.
        graph = _graph()
        single = SimulationEvaluator(graph).evaluate(
            short_white_noise, n_psd=64, discard_transient=16)
        evaluator = (SimulationEvaluator(CompiledPlan(graph)) if fresh
                     else SimulationEvaluator(graph))
        (batched,) = evaluator.evaluate_batch(
            [{}], short_white_noise, n_psd=64, discard_transient=16)
        assert np.float64(single.error_power).tobytes() == \
            np.float64(batched.error_power).tobytes()
        assert np.float64(single.error_mean).tobytes() == \
            np.float64(batched.error_mean).tobytes()
        assert single.num_samples == batched.num_samples
        assert _psd_fields(single.error_psd) == _psd_fields(batched.error_psd)

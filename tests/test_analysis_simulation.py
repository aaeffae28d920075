"""Unit tests for the simulation-based evaluator."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.analysis._engine import memoization_disabled
from repro.analysis.evaluator import AccuracyEvaluator
from repro.analysis.simulation_method import SimulationEvaluator
from repro.lti.fir_design import design_fir_lowpass
from repro.sfg.builder import SfgBuilder


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


class TestBatchedStimulus:
    def test_batched_error_power_matches_loop_of_1d_runs(self, rng):
        evaluator = SimulationEvaluator(_graph(bits=9))
        block = rng.uniform(-0.9, 0.9, (8, 2_000))
        batched = evaluator.evaluate(block)
        loop_powers = [evaluator.evaluate(block[trial]).error_power
                       for trial in range(len(block))]
        assert batched.error_power == pytest.approx(
            float(np.mean(loop_powers)), rel=1e-12)
        assert batched.num_samples == block.size

    def test_batched_error_signal_is_2d_and_identical_per_trial(self, rng):
        evaluator = SimulationEvaluator(_graph(bits=9))
        block = rng.uniform(-0.9, 0.9, (4, 1_000))
        batched = evaluator.error_signal(block)
        assert batched.shape == block.shape
        for trial in range(len(block)):
            np.testing.assert_array_equal(
                batched[trial], evaluator.error_signal(block[trial]))

    def test_batched_transient_discard_is_per_trial(self, rng):
        evaluator = SimulationEvaluator(_graph())
        block = rng.uniform(-0.9, 0.9, (3, 500))
        result = evaluator.evaluate(block, discard_transient=100)
        assert result.num_samples == 3 * 400

    def test_batched_error_psd_averages_trials(self, rng):
        evaluator = SimulationEvaluator(_graph())
        block = rng.uniform(-0.9, 0.9, (4, 4_096))
        result = evaluator.evaluate(block, n_psd=64)
        assert result.error_psd.n_bins == 64
        assert result.error_psd.total_power == pytest.approx(
            result.error_power, rel=0.05)

    def test_batched_dict_stimulus(self, rng):
        evaluator = SimulationEvaluator(_graph())
        block = rng.uniform(-0.9, 0.9, (2, 800))
        result = evaluator.evaluate({"x": block})
        assert result.error_power > 0.0


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

        monkeypatch.setattr(evaluator.plan, "run", no_run)
        match = "'nope' is not an output node"
        with pytest.raises(ValueError, match=match):
            evaluator.evaluate(short_white_noise, output="nope")
        with pytest.raises(ValueError, match=match):
            evaluator.error_signal(short_white_noise, output="nope")
        with pytest.raises(ValueError, match=match):
            evaluator.evaluate_batch([{}], short_white_noise, output="nope")

    def test_multi_output_graph_needs_an_output_name(self, short_white_noise):
        evaluator = SimulationEvaluator(_two_output_graph())
        with pytest.raises(ValueError, match="specify which"):
            evaluator.error_signal(short_white_noise)
        assert evaluator.evaluate(short_white_noise,
                                  output="y2").error_power > 0.0


class TestOneMeasurementPath:
    @pytest.mark.parametrize("memoized", [True, False])
    def test_evaluate_equals_one_config_batch(self, short_white_noise,
                                              memoized):
        evaluator = SimulationEvaluator(_graph())
        context = nullcontext() if memoized else memoization_disabled()
        with context:
            single = evaluator.evaluate(short_white_noise, n_psd=64,
                                        discard_transient=16)
            (batched,) = evaluator.evaluate_batch(
                [{}], short_white_noise, n_psd=64, discard_transient=16)
        assert np.float64(single.error_power).tobytes() == \
            np.float64(batched.error_power).tobytes()
        assert np.float64(single.error_mean).tobytes() == \
            np.float64(batched.error_mean).tobytes()
        assert single.num_samples == batched.num_samples
        assert _psd_fields(single.error_psd) == _psd_fields(batched.error_psd)

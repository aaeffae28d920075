"""Unit tests for the simulation-based evaluator."""

import numpy as np
import pytest

from repro.analysis.simulation_method import SimulationEvaluator
from repro.lti.fir_design import design_fir_lowpass
from repro.sfg.builder import SfgBuilder


def _graph(bits=8):
    builder = SfgBuilder("sim")
    x = builder.input("x", fractional_bits=bits)
    h = builder.fir("h", design_fir_lowpass(9, 0.5), x, fractional_bits=bits)
    builder.output("y", h)
    return builder.build()


class _CallableSystem:
    """Minimal FixedPointSystem protocol implementation for the tests."""

    def __init__(self, bits):
        self.step = 2.0 ** -bits

    def run_reference(self, stimulus):
        return np.asarray(stimulus, dtype=float) * 0.5

    def run_fixed_point(self, stimulus):
        exact = np.asarray(stimulus, dtype=float) * 0.5
        return np.floor(exact / self.step + 0.5) * self.step


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


class TestWithProtocolSystems:
    def test_protocol_object_accepted(self, rng):
        system = _CallableSystem(bits=8)
        evaluator = SimulationEvaluator(system)
        result = evaluator.evaluate(rng.uniform(-1, 1, 20_000))
        expected = (2.0 ** -8) ** 2 / 12
        assert result.error_power == pytest.approx(expected, rel=0.1)

    def test_invalid_system_rejected(self):
        with pytest.raises(TypeError):
            SimulationEvaluator(42)

    def test_shape_mismatch_detected(self, rng):
        class Broken:
            def run_reference(self, stimulus):
                return np.zeros(10)

            def run_fixed_point(self, stimulus):
                return np.zeros(11)

        with pytest.raises(ValueError):
            SimulationEvaluator(Broken()).error_signal(np.zeros(10))

"""Unit tests for graph compilation (`repro.sfg.plan`)."""

import numpy as np
import pytest

from repro.analysis.psd_method import evaluate_psd
from repro.analysis.simulation_method import SimulationEvaluator
from repro.lti.fir_design import design_fir_lowpass
from repro.lti.iir_design import design_iir_filter
from repro.sfg.builder import SfgBuilder
from repro.sfg.nodes import FirNode, InputNode
from repro.sfg.plan import (
    CompiledPlan,
    compile_plan,
    quantization_signature,
    structure_signature,
)
from repro.simkernel import use_backend


def _graph(bits=10):
    b, a = design_iir_filter(3, 0.35, kind="lowpass", family="butterworth")
    builder = SfgBuilder("plan-test")
    x = builder.input("x", fractional_bits=bits)
    h = builder.fir("h", design_fir_lowpass(9, 0.4), x, fractional_bits=bits)
    i = builder.iir("i", b, a, h, fractional_bits=bits)
    builder.output("y", i)
    return builder.build()


def _fir_graph(bits=10):
    builder = SfgBuilder("fir")
    x = builder.input("x", fractional_bits=bits)
    h = builder.fir("h", design_fir_lowpass(9, 0.4), x, fractional_bits=bits)
    builder.output("y", h)
    return builder.build()


class TestCompilation:
    def test_schedule_is_topological_and_index_based(self):
        plan = compile_plan(_graph())
        seen = set()
        for step in plan.steps:
            assert all(i in seen or i == step.index
                       for i in step.predecessors)
            assert all(i < step.index for i in step.predecessors)
            seen.add(step.index)
        assert [s.name for s in plan.steps] == \
            plan.graph.topological_order()

    def test_validation_happens_at_compile_time(self):
        from repro.sfg.graph import SignalFlowGraph
        from repro.sfg.nodes import OutputNode

        graph = SignalFlowGraph("broken")
        graph.add_node(InputNode("x"))
        graph.add_node(FirNode("h", [1.0]))
        graph.add_node(OutputNode("y"))
        graph.connect("x", "h")
        # "y" port left undriven -> compile must fail.
        with pytest.raises(ValueError):
            CompiledPlan(graph)

    def test_walk_does_not_revalidate(self, monkeypatch):
        graph = _graph()
        plan = compile_plan(graph)
        calls = []
        monkeypatch.setattr(graph, "validate",
                            lambda: calls.append(1))
        evaluate_psd(plan, 64)
        evaluate_psd(plan, 64)
        assert calls == []

    def test_noise_sources_precomputed(self):
        plan = compile_plan(_graph())
        assert {s.name for s in plan.noise_steps} == {"x", "h", "i"}
        for step in plan.noise_steps:
            assert step.noise.variance > 0.0
        builder = SfgBuilder("quiet")
        x = builder.input("x")
        h = builder.fir("h", [1.0, 0.5], x)
        builder.output("y", h)
        assert compile_plan(builder.build()).noise_steps == ()

    def test_input_quantizers_preconstructed(self):
        plan = compile_plan(_graph(bits=8))
        by_name = {step.name: step for step in plan.steps}
        assert by_name["x"].quantizer is not None
        assert by_name["x"].quantizer.fmt.fractional_bits == 8
        assert by_name["y"].quantizer is None


class TestPlanCache:
    def test_same_graph_reuses_plan(self):
        graph = _graph()
        assert compile_plan(graph) is compile_plan(graph)

    def test_passing_a_plan_is_identity(self):
        plan = compile_plan(_graph())
        assert compile_plan(plan) is plan

    def test_structural_change_recompiles(self):
        graph = _graph()
        plan = compile_plan(graph)
        graph.remove_node("y")
        from repro.sfg.nodes import OutputNode
        graph.add_node(OutputNode("y2"))
        graph.connect("i", "y2")
        new_plan = compile_plan(graph)
        assert new_plan is not plan
        assert new_plan.output_names == ("y2",)

    def test_quantization_change_refreshes_in_place(self):
        graph = _graph(bits=12)
        plan = compile_plan(graph)
        noise_before = {s.name: s.noise.variance for s in plan.noise_steps}
        node = graph.node("h")
        node.quantization = node.quantization.with_fractional_bits(6)
        assert compile_plan(graph) is plan
        noise_after = {s.name: s.noise.variance for s in plan.noise_steps}
        assert noise_after["h"] > noise_before["h"]
        assert noise_after["x"] == noise_before["x"]

    def test_signatures_detect_the_right_changes(self):
        graph = _graph()
        s_structure = structure_signature(graph)
        s_quant = quantization_signature(graph)
        node = graph.node("h")
        node.quantization = node.quantization.with_fractional_bits(4)
        assert structure_signature(graph) == s_structure
        assert quantization_signature(graph) != s_quant


class TestCoefficientMutation:
    def _gain_graph(self):
        builder = SfgBuilder("coeff")
        x = builder.input("x", fractional_bits=8)
        g = builder.gain("g1", 0.5, x, fractional_bits=8)
        builder.output("y", g)
        return builder.build()

    def test_coefficient_edit_invalidates_response_cache(self):
        graph = self._gain_graph()
        before = evaluate_psd(graph, 64).total_power
        graph.node("g1").gain = 4.0
        after = evaluate_psd(graph, 64).total_power
        fresh = evaluate_psd(CompiledPlan(graph), 64).total_power
        assert after == fresh
        assert after != before

    def test_executor_picks_up_spec_mutation_between_runs(self, rng):
        graph = _graph(bits=4)
        plan = compile_plan(graph)
        stimulus = {"x": rng.uniform(-0.9, 0.9, 64)}
        stale = plan.run(stimulus, mode="fixed").output("y")
        node = graph.node("x")
        node.quantization = node.quantization.with_fractional_bits(12)
        refreshed = plan.run(stimulus, mode="fixed").output("y")
        np.testing.assert_array_equal(
            refreshed,
            CompiledPlan(graph).run(stimulus, mode="fixed").output("y"))
        assert not np.array_equal(refreshed, stale)


class TestRequantize:
    def test_requantize_matches_fresh_compile(self):
        graph = _graph(bits=12)
        plan = compile_plan(graph)
        before = evaluate_psd(plan, 128).total_power
        plan.requantize({"x": 8, "h": 8, "i": 8})
        via_plan = evaluate_psd(plan, 128).total_power
        fresh = evaluate_psd(CompiledPlan(graph), 128).total_power
        assert via_plan == fresh
        assert via_plan > before

    def test_response_cache_survives_requantization(self):
        graph = _graph(bits=12)
        plan = compile_plan(graph)
        evaluate_psd(plan, 128)
        cached = dict(plan._response_cache)
        # Moving only the data word length back and forth reuses every
        # cached response (they are keyed by coefficient precision, which
        # follows fractional_bits here, so the original keys come back).
        plan.requantize({"x": 8, "h": 8, "i": 8})
        evaluate_psd(plan, 128)
        plan.requantize({"x": 12, "h": 12, "i": 12})
        evaluate_psd(plan, 128)
        for key, value in cached.items():
            assert key in plan._response_cache
            np.testing.assert_array_equal(plan._response_cache[key], value)


class TestExecution:
    def test_output_matches_direct_filtering(self, rng):
        graph = _fir_graph()
        taps = graph.node("h")._effective_transfer_function().b
        x = rng.uniform(-0.9, 0.9, 300)
        result = compile_plan(graph).run({"x": x})
        np.testing.assert_allclose(result.output("y"),
                                   np.convolve(x, taps)[:300])

    def test_keep_signals(self, rng):
        x = rng.uniform(-0.9, 0.9, 50)
        result = compile_plan(_fir_graph()).run({"x": x}, keep_signals=True)
        assert set(result.signals) == {"x", "h", "y"}

    def test_signals_not_kept_by_default(self, rng):
        result = compile_plan(_fir_graph()).run({"x": rng.uniform(-1, 1, 10)})
        assert result.signals == {}

    def test_multi_output_requires_name(self, rng):
        builder = SfgBuilder()
        x = builder.input("x")
        h1 = builder.fir("h1", [1.0], x)
        h2 = builder.fir("h2", [0.5], x)
        builder.output("y1", h1)
        builder.output("y2", h2)
        result = compile_plan(builder.build()).run(
            {"x": rng.uniform(-1, 1, 5)})
        with pytest.raises(ValueError):
            result.output()
        assert len(result.output("y2")) == 5

    def test_all_signals_on_grid(self, rng):
        x = rng.uniform(-0.9, 0.9, 200)
        result = compile_plan(_fir_graph(bits=8)).run(
            {"x": x}, mode="fixed", keep_signals=True)
        for name, signal in result.signals.items():
            scaled = signal * 2 ** 8
            np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9,
                                       err_msg=f"signal {name} off grid")

    def test_run_pair_matches_two_runs(self, rng):
        plan = compile_plan(_graph(bits=7))
        stimulus = {"x": rng.uniform(-0.9, 0.9, 500)}
        reference, fixed = plan.run_pair(stimulus)
        np.testing.assert_array_equal(
            reference.output("y"),
            plan.run(stimulus, mode="double").output("y"))
        np.testing.assert_array_equal(
            fixed.output("y"),
            plan.run(stimulus, mode="fixed").output("y"))

    def test_batched_run_matches_per_trial_runs(self, rng):
        plan = compile_plan(_graph(bits=9))
        block = rng.uniform(-0.9, 0.9, (6, 400))
        batched = plan.run({"x": block}, mode="fixed").output("y")
        assert batched.shape == (6, 400)
        for trial in range(6):
            np.testing.assert_array_equal(
                batched[trial],
                plan.run({"x": block[trial]}, mode="fixed").output("y"))

    def test_unknown_mode_rejected(self, rng):
        plan = compile_plan(_graph())
        with pytest.raises(ValueError):
            plan.run({"x": rng.uniform(-1, 1, 8)}, mode="half")

    def test_missing_stimulus_rejected(self):
        with pytest.raises(ValueError):
            compile_plan(_graph()).run({})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_stimulus_rejected(self, rng, bad):
        plan = compile_plan(_graph(bits=8))
        x = rng.uniform(-0.9, 0.9, 256)
        x[100] = bad
        for stimulus in ({"x": x}, {"x": np.stack([x[::-1], x])}):
            for run in (lambda s: plan.run(s, mode="fixed"),
                        lambda s: plan.run(s, mode="double"),
                        plan.run_pair):
                with pytest.raises(ValueError,
                                   match="'x' holds NaN or infinite"):
                    run(stimulus)


class TestErrorSignal:
    """The fixed-minus-double record of ``SimulationEvaluator``."""

    def test_error_signal_is_fixed_minus_double(self, rng):
        plan = compile_plan(_fir_graph(bits=6))
        x = rng.uniform(-0.9, 0.9, 100)
        reference = plan.run({"x": x}).output("y")
        fixed = plan.run({"x": x}, mode="fixed").output("y")
        np.testing.assert_array_equal(
            SimulationEvaluator(plan).error_signal({"x": x}),
            fixed - reference)

    def test_error_shrinks_with_word_length(self, rng):
        x = rng.uniform(-0.9, 0.9, 2000)
        errors = [np.mean(SimulationEvaluator(_fir_graph(bits))
                          .error_signal({"x": x}) ** 2)
                  for bits in (6, 10, 14)]
        assert errors[0] > errors[1] > errors[2]

    def test_error_power_close_to_pqn_prediction(self, rng):
        """Single FIR block: measured noise ~ (input + output source) model."""
        graph = _fir_graph(bits=10)
        x = rng.uniform(-0.9, 0.9, 60_000)
        error = SimulationEvaluator(graph).error_signal({"x": x})
        measured = np.mean(error[100:] ** 2)
        predicted = evaluate_psd(graph, 512).total_power
        assert measured == pytest.approx(predicted, rel=0.15)

    def test_batched_error_signal(self, rng):
        evaluator = SimulationEvaluator(_graph(bits=9))
        block = rng.uniform(-0.9, 0.9, (4, 300))
        batched = evaluator.error_signal({"x": block})
        looped = np.stack([evaluator.error_signal({"x": block[t]})
                           for t in range(4)])
        np.testing.assert_array_equal(batched, looped)

    def test_error_signal_rejects_shape_mismatch(self, rng, monkeypatch):
        graph = _graph(bits=8)
        evaluator = SimulationEvaluator(CompiledPlan(graph))
        node = graph.node("h")
        original = type(node).simulate_fixed
        monkeypatch.setattr(
            type(node), "simulate_fixed",
            lambda self, inputs: original(self, inputs)[:-1])
        # The fault is planted in the per-node walk, which the default
        # backend's op tape never calls.
        with use_backend("reference"):
            with pytest.raises(ValueError, match="different shapes"):
                evaluator.error_signal({"x": rng.uniform(-0.9, 0.9, 64)})

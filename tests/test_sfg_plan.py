"""Unit tests for graph compilation and execution (`repro.sfg.plan`)."""

import dataclasses
import logging
import re

import numpy as np
import pytest

from repro.analysis.evaluator import AccuracyEvaluator
from repro.analysis.flat_method import evaluate_flat
from repro.analysis.psd_method import evaluate_psd
from repro.analysis.simulation_method import SimulationEvaluator
from repro.campaign import build_scenario, scenario_names
from repro.data.signals import uniform_white_noise
from repro.fixedpoint.quantizer import RoundingMode
from repro.lti.fir_design import design_fir_lowpass
from repro.lti.iir_design import design_iir_filter
from repro.sfg.builder import SfgBuilder
from repro.sfg.nodes import FirNode, InputNode, OutputNode
from repro.sfg.plan import (
    CompiledPlan,
    compile_plan,
    quantization_signature,
    structure_signature,
)
from repro.verify.legacy import legacy_run


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


def _one_gain_graph():
    builder = SfgBuilder("one-gain")
    x = builder.input("x")
    builder.output("y", builder.gain("g", 0.5, x, fractional_bits=8))
    return builder.build()


def _mixed_graph(bits=10, rounding=RoundingMode.ROUND, name="plan-mixed"):
    """Gain, FIR, IIR, delay, adder, decimator and expander on one path."""
    builder = SfgBuilder(name)
    x = builder.input("x", fractional_bits=bits, rounding=rounding)
    g = builder.gain("g", 0.71, x, fractional_bits=bits, rounding=rounding)
    h = builder.fir("h", [0.25, -0.5, 0.125], g,
                    fractional_bits=bits, rounding=rounding)
    v = builder.iir("v", [0.3, 0.2], [1.0, -0.5], h,
                    fractional_bits=bits, rounding=rounding)
    d = builder.delay("d", v, samples=2)
    s = builder.add("s", [d, x], signs=[1.0, -1.0],
                    fractional_bits=bits, rounding=rounding)
    down = builder.downsample("down", s, factor=2, phase=1)
    up = builder.upsample("up", down, factor=3)
    builder.output("y", up)
    return builder.build()


def _cached(plan, quantity):
    """The plan's content-cache entries of one quantity, keyed by their
    content key: ``(node type, coefficient state, kind, effective
    coefficient precision[, n_bins])``."""
    return {key[1:]: value for key, value in plan._content_cache.items()
            if key[0] == quantity}


def _white(samples=512, seed=11):
    return {"x": uniform_white_noise(samples, seed=seed)}


def _run_fixed(plan, stimulus):
    return plan.run(stimulus, mode="fixed").output("y")


def _oracle_fixed(plan, stimulus):
    """The oracle's fixed run of the plan's graph on the legacy loops."""
    return legacy_run(plan.graph, stimulus, "fixed")


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
        assert by_name["x"].quantizer.fractional_bits == 8
        assert by_name["y"].quantizer is None


class TestBlockResponses:
    """The per-block responses the analytical walks shape noise with."""

    def test_block_response_is_the_dft_of_the_rounded_taps(self):
        graph = _graph(bits=6)
        plan = compile_plan(graph)
        step = plan.steps[plan.index_of["h"]]
        rounded = graph.node("h")._effective_transfer_function().b
        response = plan.response(step, "block", 6, 64)
        np.testing.assert_allclose(response, np.fft.fft(rounded, 64),
                                   atol=1e-12)
        assert plan.response(step, "block", 6, 64) is response  # memoized
        # A hypothetical word length rounds the taps differently and
        # leaves the live response alone.
        finer, _ = plan.magnitude(step, "block", 16, 64)
        assert not np.allclose(finer, np.abs(response) ** 2)
        assert plan.response(step, "block", 6, 64) is response

    def test_shaping_response_of_an_iir_block_is_one_over_a(self):
        graph = _graph()
        plan = compile_plan(graph)
        step = plan.steps[plan.index_of["i"]]
        denominator = graph.node("i")._effective_transfer_function().a
        np.testing.assert_allclose(plan.response(step, "shaping", 10, 128),
                                   1.0 / np.fft.fft(denominator, 128),
                                   rtol=1e-12)
        assert plan.transfer_function(step, "shaping", 10).b.tolist() == \
            [1.0]


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


def _same_psd(result, expected):
    assert result.ac.tobytes() == expected.ac.tobytes()
    assert result.mean.hex() == expected.mean.hex()


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
        # The PSD walks read |H|^2 and the DC gain, one entry per block
        # and kind: h's block, i's block and i's noise shaping.
        cached = _cached(plan, "magnitude")
        assert len(cached) == 3
        # Moving only the data word length back and forth reuses every
        # cached entry (they are keyed by coefficient precision, which
        # follows fractional_bits here, so the original keys come back).
        plan.requantize({"x": 8, "h": 8, "i": 8})
        evaluate_psd(plan, 128)
        plan.requantize({"x": 12, "h": 12, "i": 12})
        evaluate_psd(plan, 128)
        magnitudes = _cached(plan, "magnitude")
        assert len(magnitudes) == 6
        for key, (squared, dc) in cached.items():
            assert magnitudes[key][0] is squared
            assert magnitudes[key][1] == dc

    def test_requantize_does_not_fingerprint_the_graph(self, monkeypatch):
        import repro.sfg.plan as plan_module

        plan = compile_plan(_mixed_graph(bits=12, name="mixed-fingerprint"))
        calls = []
        for name in ("coefficient_signature", "quantization_signature"):
            real = getattr(plan_module, name)
            monkeypatch.setattr(
                plan_module, name,
                lambda graph, name=name, real=real:
                    calls.append(name) or real(graph))
        epoch = plan.epoch
        plan.requantize({"h": 9, "g->h": 7})
        assert calls == []
        # The assigned node, which is the tap's target, is rebuilt; the
        # tap's source is not.
        assert {plan.steps[i].name
                for i in plan.steps_rebuilt_since(epoch)} == {"h"}
        assert plan.steps[plan.index_of["h"]].edge_taps[0].bits == 7
        # The refresh of the next evaluation finds nothing left to do.
        assert plan.refresh() is False
        assert set(calls) == {"coefficient_signature",
                              "quantization_signature"}

    @pytest.mark.parametrize("assigned", ["g1", "x"])
    def test_coefficient_edit_before_requantize_reaches_evaluation(
            self, assigned):
        # Whether or not the requantize touches the edited node, the
        # pending gain edit is folded in by the evaluation's refresh.
        builder = SfgBuilder("coeff-requantize")
        x = builder.input("x", fractional_bits=10)
        g = builder.gain("g1", 0.5, x, fractional_bits=10)
        builder.output("y", builder.fir("h", [0.5, 0.25], g,
                                        fractional_bits=10))
        graph = builder.build()
        plan = compile_plan(graph)
        before = evaluate_psd(plan, 64)
        graph.node("g1").gain = 3.0
        plan.requantize({assigned: 8})
        after = evaluate_psd(plan, 64)
        _same_psd(after, evaluate_psd(CompiledPlan(graph), 64))
        assert after.total_power != before.total_power


class TestContentKeys:
    """Response caches keyed by node type, coefficient state, kind and
    effective coefficient precision, not by step."""

    def test_one_entry_per_design_and_width(self, monkeypatch):
        from repro.lti.transfer_function import TransferFunction
        from repro.systems.families import build_scalability_bank

        plan = compile_plan(build_scalability_bank(branches=16))
        calls = []
        real = TransferFunction.frequency_response
        monkeypatch.setattr(
            TransferFunction, "frequency_response",
            lambda tf, *args: calls.append(tf) or real(tf, *args))
        evaluate_psd(plan, 64)
        # The 16 FIR branches cycle through 7 cutoffs.
        assert len(_cached(plan, "magnitude")) == 7
        assert len(calls) == 7
        branches = [name for name in plan.index_of if "branch" in name]
        plan.requantize({name: 10 for name in branches})
        evaluate_psd(plan, 64)
        assert len(_cached(plan, "magnitude")) == len(calls) == 14
        # Branches 0 and 7 share a design, hence one entry.
        first, eighth = (plan.steps[plan.index_of[name]]
                         for name in ("branch0", "branch7"))
        assert plan.magnitude(first, "block", 10, 64) is \
            plan.magnitude(eighth, "block", 10, 64)
        assert len(calls) == 14

    def test_psd_and_tracked_walks_compute_each_response_once(
            self, monkeypatch):
        from repro.analysis.psd_method import evaluate_psd_tracked
        from repro.lti.transfer_function import TransferFunction
        from repro.systems.families import build_scalability_bank

        graph = build_scalability_bank(branches=16)
        # A fresh plan running the two walks in the other order.
        other = CompiledPlan(graph)
        expected = (evaluate_psd_tracked(other, 1024),
                    evaluate_psd(other, 1024))
        calls = []
        real = TransferFunction.frequency_response
        monkeypatch.setattr(
            TransferFunction, "frequency_response",
            lambda tf, *args: calls.append(tf) or real(tf, *args))
        plan = compile_plan(graph)
        psd = evaluate_psd(plan, 1024)
        tracked = evaluate_psd_tracked(plan, 1024)
        # The 16 branches share 7 designs; the magnitudes the PSD walk
        # reads come from the complex responses the tracked walk reads.
        assert len(calls) == 7
        responses = _cached(plan, "response")
        magnitudes = _cached(plan, "magnitude")
        assert len(responses) == len(magnitudes) == 7
        for key, (squared, dc) in magnitudes.items():
            response = responses[key]
            assert squared.tobytes() == (np.abs(response) ** 2).tobytes()
            assert dc == float(np.real(response[0]))
        _same_psd(tracked, expected[0])
        _same_psd(psd, expected[1])

    def test_fir_and_frequency_domain_fir_do_not_share(self):
        from repro.systems.freq_filter import FrequencyDomainFirNode

        taps = design_fir_lowpass(9, 0.4)
        builder = SfgBuilder("fir-and-fd")
        x = builder.input("x", fractional_bits=12)
        h = builder.fir("h", taps, x, fractional_bits=12)
        builder.graph.add_node(FrequencyDomainFirNode(
            "f", taps, fft_size=16,
            quantization=builder.graph.node("h").quantization))
        builder.graph.connect(x, "f")
        builder.output("y", builder.add("s", [h, "f"]))
        plan = compile_plan(builder.build())
        evaluate_psd(plan, 64)
        magnitudes = _cached(plan, "magnitude")
        keys = sorted(magnitudes, key=lambda key: key[0].__name__)
        assert [key[0].__name__ for key in keys] == \
            ["FirNode", "FrequencyDomainFirNode"]
        # Equal taps; the frequency-domain node's state adds its FFT size.
        assert keys[0][1] == (taps.tobytes(), None)
        assert keys[1][1] == (taps.tobytes(), 16)
        assert keys[0][2:] == keys[1][2:]
        assert magnitudes[keys[0]] is not magnitudes[keys[1]]

    @pytest.mark.parametrize("n_psd", [64, 128])
    def test_gain_assignment_matches_a_fresh_plan(self, n_psd):
        graph = _mixed_graph(bits=11, name="mixed-gain-edit")
        plan = compile_plan(graph)
        before = evaluate_psd(plan, n_psd)
        kept = _cached(plan, "magnitude")
        graph.node("g").gain = -1.3
        edited = evaluate_psd(plan, n_psd)
        _same_psd(edited, evaluate_psd(CompiledPlan(graph), n_psd))
        assert edited.total_power != before.total_power
        # No eviction: the old design's entries stay, the edit adds one.
        magnitudes = _cached(plan, "magnitude")
        assert all(magnitudes[key] is entry for key, entry in kept.items())
        assert len(magnitudes) == len(kept) + 1
        # Assigning the old gain back looks the old entries up again.
        graph.node("g").gain = 0.71
        _same_psd(evaluate_psd(plan, n_psd), before)
        assert len(_cached(plan, "magnitude")) == len(kept) + 1

    @pytest.mark.parametrize("bits", [12, None], ids=["quantized", "exact"])
    def test_in_place_tap_edit_matches_a_fresh_plan(self, bits):
        # Two branches of one design share every entry.  An in-place edit
        # of one branch's taps must leave what the other reads alone —
        # also when the branch is exact and hands out its own transfer
        # function, whose arrays the edit changes.
        taps = design_fir_lowpass(9, 0.4)
        builder = SfgBuilder("twin-branches")
        x = builder.input("x", fractional_bits=10)
        a = builder.fir("a", taps, x, fractional_bits=bits)
        b = builder.fir("b", taps, x, fractional_bits=bits)
        builder.output("y", builder.add("s", [a, b], signs=[1.0, -0.5],
                                        fractional_bits=10))
        graph = builder.build()
        plan = compile_plan(graph)
        evaluate_psd(plan, 64)
        flat_before = evaluate_flat(plan)
        graph.node("a").taps[0] = 0.75
        for n_psd in (64, 32):
            _same_psd(evaluate_psd(plan, n_psd),
                      evaluate_psd(CompiledPlan(graph), n_psd))
        flat = evaluate_flat(plan)
        expected = evaluate_flat(CompiledPlan(graph))
        assert flat.variance != flat_before.variance
        assert flat.mean.hex() == expected.mean.hex()
        assert flat.variance.hex() == expected.variance.hex()

    def test_a_value_computed_while_an_edit_is_pending_is_not_kept(self):
        # Keys hold the coefficient state the last refresh recorded; a
        # response asked for before the refresh describes the edited taps
        # and must not be served under the unedited design's key.
        graph = _fir_graph(bits=12)
        plan = compile_plan(graph)
        step = plan.steps[plan.index_of["h"]]
        evaluate_psd(plan, 64)
        original = graph.node("h").taps[0]
        graph.node("h").taps[0] = 0.5
        plan.magnitude(step, "block", 10, 32)
        graph.node("h").taps[0] = original
        plan.requantize({"h": 10})
        _same_psd(evaluate_psd(plan, 32),
                  evaluate_psd(CompiledPlan(graph), 32))


class TestExecution:
    def test_output_matches_direct_filtering(self, rng):
        graph = _fir_graph()
        taps = graph.node("h")._effective_transfer_function().b
        x = rng.uniform(-0.9, 0.9, 300)
        result = compile_plan(graph).run({"x": x})
        np.testing.assert_allclose(result.output("y"),
                                   np.convolve(x, taps)[:300])

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
        # Every signal is read through an output node of its own.
        graph = _graph(bits=8)
        for name in ("x", "h", "i"):
            graph.add_node(OutputNode(f"probe_{name}"))
            graph.connect(name, f"probe_{name}")
        x = rng.uniform(-0.9, 0.9, 200)
        result = compile_plan(graph).run({"x": x}, mode="fixed")
        assert set(result.outputs) == {"y", "probe_x", "probe_h", "probe_i"}
        for name, signal in result.outputs.items():
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

    def test_unknown_mode_rejected(self, rng):
        plan = compile_plan(_graph())
        with pytest.raises(ValueError):
            plan.run({"x": rng.uniform(-1, 1, 8)}, mode="half")

    def test_missing_stimulus_rejected(self):
        with pytest.raises(ValueError):
            compile_plan(_graph()).run({})

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0), (0, 16), (2, 64)],
                             ids=["scalar", "empty", "no-samples",
                                  "no-trials", "stacked"])
    @pytest.mark.parametrize("build", [_one_gain_graph, _fir_graph],
                             ids=["gain", "fir"])
    def test_degenerate_stimulus_rejected(self, shape, build):
        graph = build()
        stimulus = {"x": np.full(shape, 0.5)}
        plan = compile_plan(graph)
        simulator = SimulationEvaluator(plan)
        for run in (lambda: plan.run(stimulus, mode="fixed"),
                    lambda: plan.run(stimulus, mode="double"),
                    lambda: plan.run_pair(stimulus),
                    lambda: simulator.evaluate(stimulus),
                    lambda: simulator.evaluate_batch([{}, {}], stimulus),
                    lambda: AccuracyEvaluator(graph, n_psd=16).compare(
                        stimulus)):
            with pytest.raises(ValueError,
                               match="input node 'x' has shape"):
                run()

    @pytest.mark.parametrize("shape", [(0,), (2, 16)],
                             ids=["empty", "stacked"])
    def test_degenerate_stimulus_names_its_input(self, shape):
        builder = SfgBuilder("two-inputs")
        x = builder.input("x", fractional_bits=8)
        u = builder.input("u", fractional_bits=8)
        builder.output("y", builder.add("s", [x, u], fractional_bits=8))
        plan = compile_plan(builder.build())
        stimulus = {"x": np.full(16, 0.5), "u": np.zeros(shape)}
        message = rf"input node 'u' has shape {re.escape(str(shape))}"
        for run in (lambda: plan.run(stimulus, mode="double"),
                    lambda: plan.run(stimulus, mode="fixed"),
                    lambda: plan.run_pair(stimulus)):
            with pytest.raises(ValueError, match=message):
                run()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_stimulus_rejected(self, rng, bad):
        plan = compile_plan(_graph(bits=8))
        x = rng.uniform(-0.9, 0.9, 256)
        x[100] = bad
        for run in (lambda s: plan.run(s, mode="fixed"),
                    lambda s: plan.run(s, mode="double"),
                    plan.run_pair):
            with pytest.raises(ValueError,
                               match="'x' holds NaN or infinite"):
                run({"x": x})


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

    def test_error_signal_rejects_shape_mismatch(self, rng, monkeypatch):
        graph = _graph(bits=8)
        evaluator = SimulationEvaluator(CompiledPlan(graph))
        node = graph.node("h")
        original = type(node).simulate_fixed
        monkeypatch.setattr(
            type(node), "simulate_fixed",
            lambda self, inputs: original(self, inputs)[:-1])
        with pytest.raises(ValueError, match="different shapes"):
            evaluator.error_signal({"x": rng.uniform(-0.9, 0.9, 64)})


class TestBackendEquality:
    """The default kernels against the oracle's reference loops, bitwise,
    on every node type of :func:`_mixed_graph`."""

    @pytest.mark.parametrize("rounding", list(RoundingMode))
    def test_single_trial_all_rounding_modes(self, rounding):
        plan = compile_plan(_mixed_graph(rounding=rounding,
                                         name=f"mixed-{rounding.value}"))
        stimulus = _white()
        expected = _oracle_fixed(plan, stimulus)
        result = _run_fixed(plan, stimulus)
        assert result.shape == expected.shape
        assert np.array_equal(result, expected)

    def test_run_pair(self):
        plan = compile_plan(_mixed_graph(name="mixed-pair"))
        stimulus = _white()
        double, fixed = plan.run_pair(stimulus)
        assert np.array_equal(double.output("y"),
                              legacy_run(plan.graph, stimulus, "double"))
        assert np.array_equal(fixed.output("y"),
                              _oracle_fixed(plan, stimulus))

    def test_streams_shorter_than_every_filter(self):
        # One to three samples: shorter than the FIR taps, the delay and
        # the decimation phase; every node still matches the loops.
        plan = compile_plan(_mixed_graph(name="mixed-short"))
        for samples in (1, 2, 3):
            stimulus = _white(samples=samples)
            expected = _oracle_fixed(plan, stimulus)
            result = _run_fixed(plan, stimulus)
            assert result.shape == expected.shape
            assert result.tobytes() == expected.tobytes()

    def test_unquantized_graph(self):
        plan = compile_plan(_mixed_graph(bits=None, name="mixed-double"))
        stimulus = _white()
        assert np.array_equal(_run_fixed(plan, stimulus),
                              _oracle_fixed(plan, stimulus))

    def test_default_fixed_run_logs_nothing(self, caplog):
        plan = compile_plan(_mixed_graph(name="mixed-silent"))
        other = compile_plan(_mixed_graph(rounding=RoundingMode.TRUNCATE,
                                          name="mixed-silent-other"))
        stimulus = _white()
        with caplog.at_level(logging.DEBUG):
            first = _run_fixed(plan, stimulus)
            second = _run_fixed(other, stimulus)
        assert not caplog.records
        assert np.array_equal(first, _oracle_fixed(plan, stimulus))
        assert np.array_equal(second, _oracle_fixed(other, stimulus))

    def test_requantized_run_matches_fresh_compile(self):
        plan = compile_plan(_mixed_graph(bits=12, name="mixed-requantize"))
        stimulus = _white()
        _run_fixed(plan, stimulus)
        plan.requantize({name: 9 for name in ("x", "g", "h", "v", "s")})
        requantized = _run_fixed(plan, stimulus)
        fresh = compile_plan(_mixed_graph(bits=9, name="mixed-fresh"))
        assert np.array_equal(requantized, _run_fixed(fresh, stimulus))
        assert np.array_equal(requantized, _oracle_fixed(plan, stimulus))

    @pytest.mark.parametrize("name", scenario_names())
    def test_registered_scenario(self, name):
        instance = build_scenario(name)
        plan = compile_plan(instance.graph)
        spec = dataclasses.replace(instance.stimulus, num_samples=2048)
        single = spec.realize(plan.input_names, seed=1)
        negated = {key: -value for key, value in single.items()}
        for stimulus in (single, negated):
            expected = legacy_run(instance.graph, stimulus, "fixed")
            result = plan.run(stimulus, mode="fixed")
            assert np.array_equal(result.output(None), expected)

    def test_frequency_domain_filter(self):
        from repro.systems.freq_filter import FrequencyDomainFilter

        plan = FrequencyDomainFilter(fractional_bits=10,
                                     n_psd=256).evaluator.plan
        stimulus = {"x": uniform_white_noise(512, seed=4)}
        assert np.array_equal(_run_fixed(plan, stimulus),
                              _oracle_fixed(plan, stimulus))


class TestStackCaches:
    """Per-plan caches the configuration stacks read: PQN moments per
    (step, bits) and each step's downstream cone."""

    def test_a_second_identical_stack_computes_no_moments(self,
                                                           monkeypatch):
        from repro.sfg.nodes import QuantizationSpec
        from repro.systems.families import build_scalability_bank

        plan = compile_plan(build_scalability_bank(branches=4))
        deltas = [{"branch0": 9}, {"branch1": 7}, {"x": 8}, {}]
        first = plan.config_stack(deltas)
        expected = [first.noise(first.step_rows(step)) for step in plan.steps]
        calls = []
        original = QuantizationSpec.noise_stats
        monkeypatch.setattr(QuantizationSpec, "noise_stats",
                            lambda spec: calls.append(spec) or original(spec))
        second = plan.config_stack(deltas)
        served = [second.noise(second.step_rows(step))
                  for step in plan.steps]
        assert calls == []
        for was, now in zip(expected, served):
            assert (was is None) == (now is None)
            if was is not None:
                assert all(np.array_equal(a, b) for a, b in zip(was, now))

    @staticmethod
    def _moments(plan, name, bits):
        stack = plan.config_stack([{name: bits}])
        means, variances = stack.noise(
            stack.step_rows(plan.steps[plan.index_of[name]]))
        return means[0], variances[0]

    def test_a_rounding_edit_changes_the_served_moments(self):
        plan = compile_plan(_fir_graph(bits=12))
        before = self._moments(plan, "h", 9)
        node = plan.graph.node("h")
        node.quantization = dataclasses.replace(
            node.quantization, rounding=RoundingMode.TRUNCATE)
        after = self._moments(plan, "h", 9)
        assert after != before and after[0] < 0.0

    def test_a_frequency_domain_fir_coefficient_edit_changes_the_moments(
            self):
        from repro.lti.transfer_function import TransferFunction
        from repro.systems.freq_filter import FrequencyDomainFirNode

        builder = SfgBuilder("fd")
        x = builder.input("x", fractional_bits=12)
        builder.graph.add_node(FrequencyDomainFirNode(
            "f", design_fir_lowpass(9, 0.4), fft_size=16,
            quantization=builder.graph.node("x").quantization))
        builder.graph.connect(x, "f")
        builder.output("y", "f")
        graph = builder.build()
        plan = compile_plan(graph)
        before = self._moments(plan, "f", 9)
        node = graph.node("f")
        node._transfer_function = TransferFunction.fir(0.5 * node.taps)
        after = self._moments(plan, "f", 9)
        assert after != before

    @pytest.mark.parametrize("seed", range(20))
    def test_cached_cones_equal_the_search(self, seed):
        from repro.systems.random_graphs import build_random_graph

        plan = compile_plan(build_random_graph(seed, blocks=8,
                                               multirate=seed % 2 == 1))
        rng = np.random.default_rng(seed)
        for _ in range(10):
            seeds = rng.choice(len(plan.steps),
                               size=rng.integers(1, 4), replace=False)
            assert plan.downstream_cone(seeds) == _searched_cone(plan, seeds)


def _searched_cone(plan, seeds):
    """Breadth-first reachability over the schedule's predecessor
    wiring: the reference for the plan's cached cones."""
    successors = {step.index: set() for step in plan.steps}
    for step in plan.steps:
        for predecessor in step.predecessors:
            successors[predecessor].add(step.index)
    seen = {int(seed) for seed in seeds}
    frontier = list(seen)
    while frontier:
        for successor in successors[frontier.pop()]:
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return sorted(seen)

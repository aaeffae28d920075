"""Per-edge / per-signal word-length granularity on the compiled plan.

Covers the fine-grained quantization tentpole end to end: edge-key
requantize and fanout taps on :class:`CompiledPlan`, dirty-cone targeting
of tap edits, scalar/batch/simulation agreement with taps in play, tapped
bit-true runs against the reference loops, and the edge-granularity
word-length search.
"""

import numpy as np
import pytest

from repro.analysis.agnostic_method import (
    evaluate_agnostic,
    evaluate_agnostic_batch,
)
from repro.analysis.flat_method import evaluate_flat, evaluate_flat_batch
from repro.analysis.psd_method import evaluate_psd, evaluate_psd_batch
from repro.data.signals import uniform_white_noise
from repro.fixedpoint.noise_model import quantization_noise_stats
from repro.fixedpoint.quantizer import RoundingMode
from repro.lti.fir_design import design_fir_highpass, design_fir_lowpass
from repro.sfg.builder import SfgBuilder
from repro.sfg.plan import CompiledPlan, compile_plan, parse_edge_key
from repro.systems.families import build_scalability_bank
from repro.systems.wordlength import WordLengthOptimizer


def _fork_graph(bits=12):
    """input -> lp -> {hp, gain} -> add: a fanout worth tapping."""
    builder = SfgBuilder("fork")
    x = builder.input("x", fractional_bits=bits)
    lp = builder.fir("lp", design_fir_lowpass(9, 0.4), x,
                     fractional_bits=bits)
    hp = builder.fir("hp", design_fir_highpass(9, 0.5), lp,
                     fractional_bits=bits)
    g = builder.gain("g", 0.5, lp, fractional_bits=bits)
    merged = builder.add("sum", [hp, g], fractional_bits=bits)
    builder.output("y", merged)
    return builder.build()


def _stimulus(graph, samples=4096, seed=0):
    plan = compile_plan(graph)
    return {name: uniform_white_noise(samples, 0.9, seed + index)
            for index, name in enumerate(plan.input_names)}


class TestParseEdgeKey:
    def test_splits_source_and_target(self):
        assert parse_edge_key("lp->g") == ("lp", "g")

    def test_rejects_plain_names(self):
        with pytest.raises(ValueError, match="neither a node name"):
            parse_edge_key("lp")


def _active_taps(plan):
    """``(target step, port, tap)`` of the plan's noise-injecting taps."""
    return [(step, port, tap) for step in plan.steps
            for port, tap in enumerate(step.edge_taps or ())
            if tap is not None and tap.noise is not None]


class TestEdgeRequantize:
    def test_tap_created_on_target_port(self):
        plan = compile_plan(_fork_graph())
        plan.requantize({"lp->g": 8})
        (entry,) = _active_taps(plan)
        step, port, tap = entry
        assert step.name == "g"
        assert port == 0
        assert tap.key == "lp->g"
        assert tap.bits == 8
        # The tap re-quantizes lp's 12-bit grid, not a continuous value.
        assert tap.noise == quantization_noise_stats(
            8, rounding=RoundingMode.ROUND, input_fractional_bits=12)

    def test_noop_tap_carries_no_noise(self):
        plan = compile_plan(_fork_graph(bits=12))
        plan.requantize({"lp->g": 12})
        assert _active_taps(plan) == []
        # ... but the quantizer is still installed (a no-op on the grid).
        (step,) = [s for s in plan.steps if s.name == "g"]
        assert step.edge_taps is not None
        assert step.edge_taps[0].noise is None

    def test_tap_removal_restores_plain_plan(self):
        plan = compile_plan(_fork_graph())
        plan.requantize({"lp->g": 8})
        plan.requantize({"lp->g": None})
        assert all(step.edge_taps is None for step in plan.steps)

    def test_unknown_edge_rejected(self):
        plan = compile_plan(_fork_graph())
        with pytest.raises(ValueError, match="no edge"):
            plan.requantize({"x->sum": 8})

    def test_edge_edit_dirties_only_the_target(self):
        plan = compile_plan(_fork_graph())
        epoch = plan.epoch
        plan.requantize({"lp->g": 8})
        dirty = plan.steps_rebuilt_since(epoch)
        assert {plan.steps[i].name for i in dirty} == {"g"}
        # hp (the other fanout branch) is untouched: its cone is clean.
        cone = {plan.steps[i].name for i in plan.downstream_cone(dirty)}
        assert "hp" not in cone
        assert "lp" not in cone

    def test_requantize_rejects_enabling_unquantized_node(self):
        graph = _fork_graph()
        graph.node("g").quantization = \
            graph.node("g").quantization.with_fractional_bits(None)
        plan = compile_plan(graph)
        with pytest.raises(ValueError, match="'g' is not quantized"):
            plan.requantize({"g": 10})
        # Opt-in and disabling are both fine.
        plan.requantize({"g": None})
        plan.requantize({"g": 10}, allow_enable=True)
        assert graph.node("g").quantization.fractional_bits == 10

    def test_tap_on_unquantized_source_is_allowed(self):
        graph = _fork_graph()
        graph.node("lp").quantization = \
            graph.node("lp").quantization.with_fractional_bits(None)
        plan = compile_plan(graph)
        plan.requantize({"lp->g": 8})
        (entry,) = _active_taps(plan)
        # An unquantized source is a continuous-amplitude tap input.
        assert entry[2].noise == quantization_noise_stats(
            8, rounding=RoundingMode.ROUND)

    def test_preserve_quantization_restores_taps(self):
        plan = compile_plan(_fork_graph())
        with plan.preserve_quantization():
            plan.requantize({"lp->g": 8, "lp": 10})
        assert _active_taps(plan) == []
        assert plan.graph.node("lp").quantization.fractional_bits == 12

    def test_quantization_signature_tracks_edges(self):
        from repro.sfg.plan import quantization_signature

        graph = _fork_graph()
        plan = compile_plan(graph)
        base = quantization_signature(graph)
        plan.requantize({"lp->g": 8})
        assert quantization_signature(graph) != base


class TestTapSimulation:
    def test_tap_quantizes_only_its_branch(self):
        graph = _fork_graph()
        stimulus = _stimulus(graph)
        plan = compile_plan(graph)
        reference = plan.run(stimulus, mode="fixed").output("y")
        plan.requantize({"lp->g": 6})
        tapped = plan.run(stimulus, mode="fixed").output("y")
        assert not np.array_equal(reference, tapped)
        # The hp branch is untapped: running with the tap on the *other*
        # branch and probing hp's input path via a one-branch graph
        # equivalent — here simply check the double-precision run is
        # unaffected by taps (they only exist on the fixed path).
        double = plan.run(stimulus, mode="double").output("y")
        plan.requantize({"lp->g": None})
        assert np.array_equal(double,
                              plan.run(stimulus, mode="double").output("y"))

    def test_noop_tap_is_bitwise_identity(self):
        graph = _fork_graph(bits=12)
        stimulus = _stimulus(graph)
        plan = compile_plan(graph)
        reference = plan.run(stimulus, mode="fixed").output("y")
        plan.requantize({"lp->g": 14})  # wider than the source: no-op
        assert np.array_equal(reference,
                              plan.run(stimulus, mode="fixed").output("y"))

    def test_tapped_run_matches_reference_loops(self):
        from repro.verify.legacy import legacy_run

        graph = _fork_graph()
        stimulus = _stimulus(graph)
        plan = compile_plan(graph)

        def reference(inputs):
            return legacy_run(graph, inputs, "fixed")

        untapped = plan.run(stimulus, mode="fixed").output("y")
        # The tapped plan equals the reference loops bitwise, paired too.
        plan.requantize({"lp->g": 7})
        tapped = plan.run(stimulus, mode="fixed").output("y")
        assert np.array_equal(tapped, reference(stimulus))
        assert not np.array_equal(tapped, untapped)
        assert np.array_equal(plan.run_pair(stimulus)[1].output("y"),
                              tapped)
        # Removing the tap restores the untapped bits.
        plan.requantize({"lp->g": None})
        assert np.array_equal(plan.run(stimulus, mode="fixed").output("y"),
                              untapped)
        assert np.array_equal(untapped, reference(stimulus))


class TestTapAnalysis:
    def test_tap_noise_raises_estimates(self):
        plan = compile_plan(_fork_graph())
        base = evaluate_psd(plan, 128).total_power
        plan.requantize({"lp->g": 6})
        assert evaluate_psd(plan, 128).total_power > base

    def test_warm_equals_cold_after_edge_edits(self):
        plan = compile_plan(_fork_graph())
        evaluate_psd(plan, 128)  # prime the memo
        for edit in ({"lp->g": 8}, {"lp->hp": 7}, {"lp->g": None},
                     {"lp": 9, "lp->hp": 6}):
            plan.requantize(edit)
            warm_psd = evaluate_psd(plan, 128)
            warm_stats = evaluate_agnostic(plan)
            warm_flat = evaluate_flat(plan)
            fresh = CompiledPlan(plan.graph)
            cold_psd = evaluate_psd(fresh, 128)
            cold_stats = evaluate_agnostic(fresh)
            cold_flat = evaluate_flat(fresh)
            assert np.array_equal(warm_psd.ac, cold_psd.ac)
            assert warm_psd.mean == cold_psd.mean
            assert warm_stats.variance == cold_stats.variance
            assert warm_flat.variance == cold_flat.variance

    def test_batch_rows_match_sequential_with_edge_keys(self):
        graph = _fork_graph()
        plan = compile_plan(graph)
        assignments = [
            {"lp": 12, "hp": 11, "lp->g": 8, "lp->hp": None},
            {"lp": 10, "hp": 12, "lp->g": None, "lp->hp": 7},
            {"lp": None, "hp": 10, "lp->g": 6, "lp->hp": None},
        ]
        psd_stack = evaluate_psd_batch(plan, 128, assignments)
        stats_stack = evaluate_agnostic_batch(plan, assignments)
        flat_stack = evaluate_flat_batch(plan, assignments)
        with plan.preserve_quantization():
            for index, assignment in enumerate(assignments):
                plan.requantize(assignment, allow_enable=True)
                scalar = evaluate_psd(plan, 128)
                assert np.array_equal(psd_stack.ac[index], scalar.ac)
                assert psd_stack.mean[index] == scalar.mean
                scalar = evaluate_agnostic(plan)
                assert stats_stack.variance[index] == scalar.variance
                assert stats_stack.mean[index] == scalar.mean
                scalar = evaluate_flat(plan)
                assert flat_stack.variance[index] == scalar.variance
                assert flat_stack.mean[index] == scalar.mean

    def test_flat_method_routes_tap_noise_through_block_tf(self):
        plan = compile_plan(_fork_graph())
        plan.requantize({"lp->hp": 6})
        flat = evaluate_flat(plan)
        psd = evaluate_psd(plan, 256)
        # Same model, different decompositions: agree to solver tolerance.
        assert flat.power == pytest.approx(psd.total_power, rel=1e-6)


class TestEdgeGranularitySearch:
    def test_edge_search_beats_node_search_on_the_bank(self):
        probe = build_scalability_bank(branches=8, taps=9)
        budget = float(evaluate_psd(probe, 128).total_power) * 16.0
        node_result = WordLengthOptimizer(
            build_scalability_bank(branches=8, taps=9),
            n_psd=128).optimize(budget)
        edge_result = WordLengthOptimizer(
            build_scalability_bank(branches=8, taps=9), n_psd=128,
            granularity="edge").optimize(budget)
        assert edge_result.total_bits < node_result.total_bits
        assert edge_result.noise_power <= budget
        assert any("->" in key for key in edge_result.assignment)

    def test_three_modes_identical_at_edge_granularity(
            self, fresh_plan_search, sequential_rounds):
        # Memo-backed row-sparse rounds, every evaluation on a fresh
        # plan, and one cold scalar evaluation per candidate.
        probe = build_scalability_bank(branches=4, taps=9)
        budget = float(evaluate_psd(probe, 128).total_power) * 16.0

        def search():
            return WordLengthOptimizer(
                build_scalability_bank(branches=4, taps=9), n_psd=128,
                granularity="edge").optimize(budget)

        results = [search()]
        fresh_plan_search()
        results.append(search())
        sequential_rounds()
        results.append(search())
        for other in results[1:]:
            assert other.assignment == results[0].assignment
            assert other.noise_power == results[0].noise_power

    def test_node_granularity_has_no_edge_tunables(self):
        optimizer = WordLengthOptimizer(_fork_graph(), n_psd=64)
        assert all("->" not in name for name in optimizer._tunable)

    def test_unknown_granularity_rejected(self):
        with pytest.raises(ValueError, match="unknown granularity"):
            WordLengthOptimizer(_fork_graph(), granularity="signal")

    def test_tunables_exclude_disabled_nodes_and_their_edges(self):
        graph = _fork_graph()
        graph.node("lp").quantization = \
            graph.node("lp").quantization.with_fractional_bits(None)
        optimizer = WordLengthOptimizer(graph, n_psd=64,
                                        granularity="edge")
        assert "lp" not in optimizer._tunable
        assert all(not name.startswith("lp->")
                   for name in optimizer._tunable)

    def test_assignment_cost_degenerates_at_node_granularity(self):
        optimizer = WordLengthOptimizer(_fork_graph(), n_psd=64)
        assignment = {"lp": 10, "hp": 9}
        assert optimizer.assignment_cost(assignment) == 19

    def test_assignment_cost_counts_tap_savings(self):
        optimizer = WordLengthOptimizer(_fork_graph(), n_psd=64,
                                        granularity="edge")
        assignment = {name: 10 for name in optimizer._tunable}
        base = optimizer.assignment_cost(assignment)
        narrowed = dict(assignment)
        narrowed["lp->g"] = 8  # two bits below its source
        assert optimizer.assignment_cost(narrowed) == base - 2
        widened = dict(assignment)
        widened["lp->g"] = 14  # no-op tap: costs nothing
        assert optimizer.assignment_cost(widened) == base

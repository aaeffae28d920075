"""Unit coverage of incremental re-evaluation (:mod:`repro.analysis._engine`).

The differential ``incremental`` check fuzzes the contract over random
graphs; this suite pins the pieces on hand-built systems: the plan's
epoch / dirty-cone machinery, the :class:`NoiseMemo` pull rules,
counters and :meth:`~NoiseMemo.clear`, bitwise identity of cone
recomputes against the cold walks of a fresh plan, the memo-backed
batched walks, the flat method's path-function cache, the simulation
evaluator's reference-run and last-measurement memos, and every memo
against a fresh plan over one edit sequence.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis._engine import plan_memo
from repro.analysis.agnostic_method import (
    evaluate_agnostic,
    evaluate_agnostic_batch,
)
from repro.analysis.flat_method import _path_functions, evaluate_flat
from repro.analysis.metrics import noise_power
from repro.analysis.psd_method import (
    evaluate_psd,
    evaluate_psd_batch,
    evaluate_psd_tracked,
)
from repro.analysis.simulation_method import (
    SimulationEvaluator,
    SimulationResult,
)
from repro.data.signals import uniform_white_noise
from repro.fixedpoint.quantizer import RoundingMode
from repro.lti.fir_design import design_fir_highpass, design_fir_lowpass
from repro.lti.transfer_function import TransferFunction
from repro.obs import observe
from repro.sfg.builder import SfgBuilder
from repro.sfg.plan import CompiledPlan, compile_plan
from repro.systems.families import (
    build_dwt97_bank,
    build_scalability_bank,
    build_scalability_chain,
)
from repro.systems.freq_filter import FrequencyDomainFilter


def _fork_graph(bits=12, second_output=False):
    """input -> lp -> {hp, gain} -> add: one step with two successors.

    ``second_output`` adds an output ``z`` tapping the gain branch.
    """
    builder = SfgBuilder("fork")
    x = builder.input("x", fractional_bits=bits)
    lp = builder.fir("lp", design_fir_lowpass(9, 0.4), x,
                     fractional_bits=bits)
    hp = builder.fir("hp", design_fir_highpass(9, 0.5), lp,
                     fractional_bits=bits)
    g = builder.gain("g", 0.5, lp, fractional_bits=bits)
    merged = builder.add("sum", [hp, g], fractional_bits=bits)
    builder.output("y", merged)
    if second_output:
        builder.output("z", g)
    return builder.build()


class TestPlanEpochs:
    def test_requantize_stamps_only_changed_cone_roots(self):
        plan = compile_plan(_fork_graph())
        epoch = plan.epoch
        plan.requantize({"hp": 10})
        assert plan.epoch == epoch + 1
        dirty = plan.steps_rebuilt_since(epoch)
        assert [plan.steps[i].node.name for i in dirty] == ["hp"]

    def test_noop_requantize_does_not_bump_the_epoch(self):
        plan = compile_plan(_fork_graph(bits=12))
        epoch = plan.epoch
        plan.requantize({"hp": 12})  # already at 12 bits
        assert plan.epoch == epoch
        assert plan.steps_rebuilt_since(epoch).size == 0

    def test_downstream_cone_is_topological_and_transitive(self):
        plan = compile_plan(_fork_graph())
        lp = plan.index_of["lp"]
        cone = plan.downstream_cone([lp])
        names = [plan.steps[i].node.name for i in cone]
        # lp feeds both hp and g, which merge into sum and the output.
        assert names == ["lp", "hp", "g", "sum", "y"] or \
            set(names) == {"lp", "hp", "g", "sum", "y"}
        assert cone == sorted(cone)

    def test_fresh_plan_starts_clean(self):
        plan = CompiledPlan(_fork_graph())
        assert plan.steps_rebuilt_since(plan.epoch).size == 0

    @staticmethod
    def _rebuilt(plan, epoch) -> list:
        return [plan.steps[i].name for i in plan.steps_rebuilt_since(epoch)]

    def test_a_tap_edit_rebuilds_only_its_target(self):
        # The k-th tap edit from x changes x's entry toward one branch:
        # neither x nor the branches tapped before are rebuilt.
        plan = compile_plan(build_scalability_bank(branches=16))
        for k in range(5):
            epoch = plan.epoch
            plan.requantize({f"x->branch{k}": 8 + k})
            assert self._rebuilt(plan, epoch) == [f"branch{k}"]
        # Through the spec, the refresh finds the same.
        node = plan.graph.node("x")
        node.quantization = node.quantization.with_edge_fractional_bits(
            "branch2", 6)
        epoch = plan.epoch
        assert plan.refresh()
        assert self._rebuilt(plan, epoch) == ["branch2"]

    def test_source_fields_rebuild_what_reads_them(self):
        plan = compile_plan(build_scalability_bank(branches=16))
        plan.requantize({"x->branch3": 9, "x->branch5": 10})
        tapped = ["x", "branch3", "branch5"]
        node = plan.graph.node("x")
        # Every tap reads the source's word length and rounding ...
        for change in ({"fractional_bits": 12},
                       {"rounding": RoundingMode.TRUNCATE}):
            node.quantization = replace(node.quantization, **change)
            epoch = plan.epoch
            plan.refresh()
            assert self._rebuilt(plan, epoch) == tapped
        # ... while no tap reads its input grid.
        node.quantization = replace(node.quantization,
                                    input_fractional_bits=14)
        epoch = plan.epoch
        plan.refresh()
        assert self._rebuilt(plan, epoch) == ["x"]


class TestNoiseMemoPulls:
    @pytest.mark.parametrize("bits", [10, 12])
    def test_pure_hit_leaves_counters_alone(self, bits):
        plan = compile_plan(_fork_graph(bits=bits))
        memo = plan_memo(plan)
        first = evaluate_psd(plan, 64)
        after_build = memo.counters()
        assert after_build["full_walks"] == 1
        second = evaluate_psd(plan, 64)
        assert memo.counters() == after_build
        assert np.array_equal(first.ac, second.ac)
        assert first.mean == second.mean

    def test_cone_recompute_matches_cold_walk_bitwise(self):
        plan = compile_plan(_fork_graph())
        evaluate_psd(plan, 64)
        evaluate_agnostic(plan)
        evaluate_psd_tracked(plan, 64)
        plan.requantize({"g": 8})
        warm_psd = evaluate_psd(plan, 64)
        warm_stats = evaluate_agnostic(plan)
        warm_tracked = evaluate_psd_tracked(plan, 64)
        fresh = CompiledPlan(plan.graph)
        cold_psd = evaluate_psd(fresh, 64)
        cold_stats = evaluate_agnostic(fresh)
        cold_tracked = evaluate_psd_tracked(fresh, 64)
        assert np.array_equal(warm_psd.ac, cold_psd.ac)
        assert warm_psd.mean == cold_psd.mean
        assert warm_stats.mean == cold_stats.mean
        assert warm_stats.variance == cold_stats.variance
        assert np.array_equal(warm_tracked.ac, cold_tracked.ac)
        assert warm_tracked.mean == cold_tracked.mean

    def test_cone_recompute_touches_only_the_cone(self):
        bank = build_scalability_bank(branches=8)
        plan = compile_plan(bank)
        memo = plan_memo(plan)
        evaluate_psd(plan, 64)
        built = memo.counters()["steps_recomputed"]
        assert built == len(plan.steps)
        plan.requantize({"branch0": 10})
        evaluate_psd(plan, 64)
        counters = memo.counters()
        assert counters["cone_recomputes"] == 1
        cone = counters["steps_recomputed"] - built
        # branch0 + its adder path, strictly less than the whole bank.
        assert 1 < cone < len(plan.steps)
        assert counters["steps_reused"] > 0

    def test_head_edit_of_a_chain_recomputes_all_but_the_input(self):
        """The scalability chain is the memo's worst case: every block is
        downstream of the first one, so its edit dirties the whole chain."""
        plan = compile_plan(build_scalability_chain(6, taps_per_block=9))
        memo = plan_memo(plan)
        evaluate_psd(plan, 64)
        built = memo.counters()["steps_recomputed"]
        plan.requantize({"block0": 10})
        warm = evaluate_psd(plan, 64)
        assert memo.counters()["steps_recomputed"] - built \
            == len(plan.steps) - 1
        cold = evaluate_psd(CompiledPlan(plan.graph), 64)
        assert np.array_equal(warm.ac, cold.ac)
        assert warm.mean == cold.mean

    def test_multirate_graph_memoizes_too(self):
        plan = compile_plan(build_dwt97_bank())
        evaluate_psd(plan, 64)
        plan.requantize({"g0": 9})
        warm = evaluate_psd(plan, 64)
        cold = evaluate_psd(CompiledPlan(plan.graph), 64)
        assert np.array_equal(warm.ac, cold.ac)
        assert warm.mean == cold.mean

    @pytest.mark.parametrize("edit", ["rounding", "pinned"])
    def test_a_rebuild_that_moves_no_live_value_recomputes_its_cone(
            self, edit):
        # x is silent (its input grid is no finer than its width) and
        # h's coefficient precision gets pinned at its live width: the
        # live values stay, yet the pull goes by the rebuild.
        builder = SfgBuilder("silent-edits")
        x = builder.input("x", fractional_bits=10)
        builder.output("y", builder.fir("h", design_fir_lowpass(9, 0.4), x,
                                        fractional_bits=10))
        graph = builder.build()
        graph.node("x").quantization = replace(
            graph.node("x").quantization, input_fractional_bits=10)
        plan = compile_plan(graph)
        memo = plan_memo(plan)
        evaluate_psd(plan, 64)
        before = memo.counters()
        if edit == "rounding":
            node, change = graph.node("x"), {"rounding": RoundingMode.TRUNCATE}
        else:
            node, change = graph.node("h"), {"coefficient_fractional_bits": 10}
        node.quantization = replace(node.quantization, **change)
        psd = evaluate_psd(plan, 64)
        after = memo.counters()
        assert after["cone_recomputes"] == before["cone_recomputes"] + 1
        assert after["full_walks"] == before["full_walks"]
        fresh = evaluate_psd(CompiledPlan(graph), 64)
        assert _same_bits(psd.ac, fresh.ac)
        assert psd.mean.hex() == fresh.mean.hex()

    def test_memo_is_per_plan_and_rebuilt_with_it(self):
        graph = _fork_graph()
        plan = compile_plan(graph)
        memo = plan_memo(plan)
        assert plan_memo(plan) is memo
        assert plan_memo(graph) is memo  # resolves through compile_plan
        assert plan_memo(compile_plan(graph)) is memo


class TestScalabilityChain:
    def test_chain_is_a_cascade_of_distinct_blocks(self):
        chain = build_scalability_chain(4, taps_per_block=9)
        assert chain.topological_order() == [
            "x", "block0", "block1", "block2", "block3", "y"]
        taps = [chain.node(f"block{index}").taps for index in range(4)]
        assert all(len(block) == 9 for block in taps)
        assert all(not np.array_equal(a, b) for a, b in zip(taps, taps[1:]))
        with pytest.raises(ValueError, match="at least one block"):
            build_scalability_chain(0)


class TestBatchedWalksWithMemo:
    def test_batch_rows_match_a_fresh_plans_batch_bitwise(self):
        plan = compile_plan(_fork_graph())
        evaluate_psd(plan, 64)  # warm the scalar memo the batch broadcasts
        assignments = [{"hp": 9}, {"hp": 12, "g": 7}, {}]
        warm = evaluate_psd_batch(plan, 64, assignments)
        cold = evaluate_psd_batch(CompiledPlan(plan.graph), 64, assignments)
        assert np.array_equal(warm.ac, cold.ac)
        assert np.array_equal(warm.mean, cold.mean)

    def test_broadcast_preserves_negative_zero(self):
        # Out-of-cone rows are broadcast from the memoized scalar values;
        # adding 0.0 instead would flip -0.0 to +0.0 and break bitwise
        # identity with the sequential walk.
        plan = compile_plan(_fork_graph())
        evaluate_psd(plan, 64)
        stack = evaluate_psd_batch(plan, 64, [{}, {"g": 6}])
        plan.requantize({})
        scalar = evaluate_psd(plan, 64)
        assert np.array_equal(stack.ac[0], scalar.ac)
        assert stack.mean[0] == scalar.mean


class TestMemoClear:
    """``NoiseMemo.clear`` forgets every value and keeps the counters and
    the plan's responses: the cold side of the timing baselines."""

    def test_next_pull_is_a_cold_walk_with_the_same_bytes(self,
                                                           monkeypatch):
        plan = compile_plan(_fork_graph())
        memo = plan_memo(plan)
        warm = evaluate_psd(plan, 64)
        evaluate_flat(plan)
        evaluate_psd_batch(plan, 64, [{"hp": 9}])
        before = memo.counters()
        memo.clear()
        assert memo.counters() == before
        assert not memo.path_functions and not memo.stores
        responses = []
        real = TransferFunction.frequency_response
        monkeypatch.setattr(
            TransferFunction, "frequency_response",
            lambda tf, *args: responses.append(tf) or real(tf, *args))
        cold = evaluate_psd(plan, 64)
        after = memo.counters()
        assert after["full_walks"] == before["full_walks"] + 1
        assert after["cone_recomputes"] == before["cone_recomputes"]
        assert responses == []  # the plan's response caches stay warm
        assert _same_bits(cold.ac, warm.ac)
        assert cold.mean.hex() == warm.mean.hex()

    def test_cleared_batch_walk_reuses_no_row(self):
        plan = compile_plan(_fork_graph())
        deltas = [{"hp": 9}, {"g": 8}]
        warm = evaluate_psd_batch(plan, 64, deltas)
        plan_memo(plan).clear()
        with observe() as session:
            cold = evaluate_psd_batch(plan, 64, deltas)
        (walk,) = [entry["attrs"] for entry in session.trace.snapshot()
                   if entry["name"] == "analysis.walk_batch"]
        assert walk["rows_reused"] == 0 and walk["rows_computed"] > 0
        assert _same_bits(cold.ac, warm.ac)
        assert _same_bits(cold.mean, warm.mean)


class TestPublishedResults:
    """What the evaluations hand back cannot reach the memo."""

    def test_evaluate_psd_bins_are_read_only(self):
        graph = build_scalability_bank(branches=8)
        psd = evaluate_psd(graph, 64)
        with pytest.raises(ValueError, match="read-only"):
            psd.ac *= 2
        again = evaluate_psd(graph, 64)
        fresh = evaluate_psd(CompiledPlan(graph), 64)
        assert _same_bits(again.ac, fresh.ac)
        assert again.mean.hex() == fresh.mean.hex()

    def test_tracked_and_batched_results_are_the_callers(self):
        graph = build_scalability_bank(branches=8)
        deltas = [{"branch0": 9}, {}]
        for evaluate in (lambda system: evaluate_psd_tracked(system, 64),
                         lambda system: evaluate_psd_batch(system, 64,
                                                           deltas)):
            mine = evaluate(graph)
            mine.ac *= 2
            again = evaluate(graph)
            fresh = evaluate(CompiledPlan(graph))
            assert _same_bits(again.ac, fresh.ac)
            assert not _same_bits(mine.ac, fresh.ac)


_EVALUATIONS = {
    "evaluate_psd": lambda plan: evaluate_psd(plan, 64),
    "evaluate_agnostic": evaluate_agnostic,
    "evaluate_psd_batch": lambda plan: evaluate_psd_batch(
        plan, 64, [{"branch0": 9}, {}]),
    "evaluate_agnostic_batch": lambda plan: evaluate_agnostic_batch(
        plan, [{"branch0": 9}, {}]),
}


class TestOneRefreshPerEvaluation:
    """An analytical evaluation folds pending edits in exactly once: the
    entry's compile_plan is the only CompiledPlan.refresh on its way."""

    @staticmethod
    def _count_refreshes(monkeypatch) -> list:
        calls = []
        original = CompiledPlan.refresh

        def counting(plan):
            calls.append(plan)
            return original(plan)
        monkeypatch.setattr(CompiledPlan, "refresh", counting)
        return calls

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("name", sorted(_EVALUATIONS))
    def test_exactly_one_refresh_on_the_bank(self, monkeypatch, name, warm):
        plan = compile_plan(build_scalability_bank(branches=64))
        if warm:
            _EVALUATIONS[name](plan)
        calls = self._count_refreshes(monkeypatch)
        _EVALUATIONS[name](plan)
        assert calls == [plan]

    def test_pending_edit_is_picked_up_by_that_one_refresh(self):
        plan = compile_plan(_fork_graph(bits=12))
        before = evaluate_psd(plan, 64)
        node = plan.graph.node("hp")
        node.quantization = node.quantization.with_fractional_bits(8)
        after = evaluate_psd(plan, 64)
        cold = evaluate_psd(CompiledPlan(plan.graph), 64)
        assert after.total_power > before.total_power
        np.testing.assert_array_equal(after.ac, cold.ac)

    def test_one_refresh_per_simulated_measurement(self, monkeypatch):
        # The memo key's refresh is the call's one: the reference and
        # the fixed leg run the plan as it stands, and still count runs.
        plan = compile_plan(build_scalability_bank(branches=8))
        evaluator = SimulationEvaluator(plan)
        stimulus = {"x": uniform_white_noise(256, seed=5)}
        calls = self._count_refreshes(monkeypatch)
        with observe(trace=False) as session:
            error = evaluator.error_signal(stimulus)
        assert calls == [plan]
        counters = session.metrics.flattened()
        assert counters["sim.error_memo.misses"] == 1
        assert counters["plan.runs{mode=double}"] == 1
        assert counters["plan.runs{mode=fixed}"] == 1
        assert _same_bits(error, _fresh_evaluator(plan).error_signal(
            stimulus))

    def test_one_refresh_per_simulated_batch(self, monkeypatch):
        # The stack's refresh, and preserve_quantization's on exit.
        plan = compile_plan(build_scalability_bank(branches=8))
        evaluator = SimulationEvaluator(plan)
        stimulus = {"x": uniform_white_noise(256, seed=5)}
        assignments = [{"branch0": 9}, {"branch1": 10}, {"x": 12}]
        calls = self._count_refreshes(monkeypatch)
        results = evaluator.evaluate_batch(assignments, stimulus)
        assert calls == [plan, plan]
        monkeypatch.undo()
        for assignment, result in zip(assignments, results):
            graph = build_scalability_bank(branches=8)
            compile_plan(graph).requantize(assignment)
            expected = SimulationEvaluator(graph).evaluate(stimulus)
            assert result.error_power.hex() == expected.error_power.hex()

    def test_config_stack_folds_pending_edits_in(self):
        plan = compile_plan(_fork_graph(bits=12))
        node = plan.graph.node("hp")
        node.quantization = node.quantization.with_fractional_bits(8)
        index = plan.index_of["hp"]
        stack = plan.config_stack([{}])
        means, variances = stack.noise(stack.step_rows(plan.steps[index]))
        fresh = CompiledPlan(plan.graph).steps[index].noise
        assert (means[0], variances[0]) == (fresh.mean, fresh.variance)


def _flat_paths(plan):
    """The flat method's path functions of the plan's noisy nodes."""
    return _path_functions(plan, "y",
                           {step.name for step in plan.noise_steps})


class TestFlatPathFunctionCache:
    def test_repeat_call_served_from_cache(self):
        plan = compile_plan(_fork_graph())
        first = _flat_paths(plan)
        cache = plan_memo(plan).path_functions
        assert len(cache) == 1
        second = _flat_paths(plan)
        assert len(cache) == 1
        assert first.keys() == second.keys()
        assert first is not second  # callers get their own dict
        assert evaluate_flat(plan).power == evaluate_flat(plan).power

    def test_coefficient_edit_misses_data_edit_hits(self):
        # Path functions depend only on effective coefficient precision;
        # the graph ties coefficient bits to the data path, so a
        # requantize changes the fingerprint and must miss.
        plan = compile_plan(_fork_graph())
        _flat_paths(plan)
        fingerprint = plan.coefficient_fingerprint()
        plan.requantize({"hp": 9})
        assert plan.coefficient_fingerprint() != fingerprint
        _flat_paths(plan)
        assert len(plan_memo(plan).path_functions) == 2

    def test_requantizing_an_input_keeps_the_entry(self):
        # An input rounds no coefficients, so its word length is no part
        # of the fingerprint and the requantize loop keeps hitting one
        # entry.
        plan = compile_plan(_fork_graph())
        evaluate_flat(plan)
        fingerprint = plan.coefficient_fingerprint()
        plan.requantize({"x": 10})
        assert plan.coefficient_fingerprint() == fingerprint
        evaluate_flat(plan)
        assert len(plan_memo(plan).path_functions) == 1


def _count_runs(monkeypatch, plan) -> dict:
    """Count the plan's runs per mode from now on: ``run`` and the legs
    of a simulated measurement all go through ``_run``."""
    real_run = plan._run
    calls = {"double": 0, "fixed": 0}

    def counting_run(inputs, mode):
        calls[mode] += 1
        return real_run(inputs, mode)

    monkeypatch.setattr(plan, "_run", counting_run)
    return calls


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def _fresh_evaluator(plan) -> SimulationEvaluator:
    """An evaluator on a freshly compiled plan of ``plan``'s graph: no
    reference run or error record of ``plan`` reaches it."""
    return SimulationEvaluator(CompiledPlan(plan.graph))


class TestSimulationReferenceMemo:
    def _evaluator_and_stimulus(self):
        plan = compile_plan(_fork_graph())
        evaluator = SimulationEvaluator(plan)
        stimulus = {"x": uniform_white_noise(512, seed=3)}
        return plan, evaluator, stimulus

    def test_reference_run_reused_across_data_path_edits(self, monkeypatch):
        # g's coefficients are pinned to 12 bits, so requantizing g edits
        # its data path only and leaves the coefficient fingerprint alone.
        plan, evaluator, stimulus = self._evaluator_and_stimulus()
        g = plan.graph.node("g")
        g.quantization = replace(g.quantization,
                                 coefficient_fractional_bits=12)
        evaluator.error_signal(stimulus)
        plan.requantize({"g": 9})
        calls = _count_runs(monkeypatch, plan)
        edited = evaluator.error_signal(stimulus)
        assert calls == {"double": 0, "fixed": 1}
        cold = _fresh_evaluator(plan).error_signal(stimulus)
        assert _same_bits(edited, cold)

    @pytest.mark.parametrize("node", ["x", "sum"])
    def test_coefficient_free_requantize_reuses_reference(self, monkeypatch,
                                                          node):
        # Neither the input nor the adder rounds coefficients: a new word
        # length there edits the fixed leg only.
        plan, evaluator, stimulus = self._evaluator_and_stimulus()
        evaluator.error_signal(stimulus)
        plan.requantize({node: 10})
        calls = _count_runs(monkeypatch, plan)
        with observe(trace=False) as session:
            edited = evaluator.error_signal(stimulus)
        assert calls == {"double": 0, "fixed": 1}
        assert session.metrics.flattened()["sim.reference_memo.hits"] == 1
        cold = _fresh_evaluator(plan).error_signal(stimulus)
        assert _same_bits(edited, cold)

    def test_coefficient_rounding_requantize_reruns_reference(
            self, monkeypatch):
        # g's coefficients follow its data word length.
        plan, evaluator, stimulus = self._evaluator_and_stimulus()
        evaluator.error_signal(stimulus)
        plan.requantize({"g": 10})
        calls = _count_runs(monkeypatch, plan)
        evaluator.error_signal(stimulus)
        assert calls == {"double": 1, "fixed": 1}

    def test_memo_results_match_a_fresh_plan_bitwise(self):
        plan, evaluator, stimulus = self._evaluator_and_stimulus()
        evaluator.error_signal(stimulus)  # prime the reference memo
        memoized = evaluator.error_signal(stimulus)
        cold = _fresh_evaluator(plan).error_signal(stimulus)
        assert _same_bits(memoized, cold)

    def test_different_stimulus_misses(self, monkeypatch):
        plan, evaluator, stimulus = self._evaluator_and_stimulus()
        evaluator.error_signal(stimulus)
        calls = _count_runs(monkeypatch, plan)
        evaluator.error_signal({"x": uniform_white_noise(512, seed=4)})
        assert calls["double"] == 1

    def test_in_place_coefficient_edit_misses(self):
        # A gain edited on the graph, with no requantize or run in
        # between, must change the memo key before the lookup.
        plan, evaluator, stimulus = self._evaluator_and_stimulus()
        evaluator.error_signal(stimulus)
        plan.graph.node("g").gain = 0.75
        memoized = evaluator.error_signal(stimulus)
        cold = _fresh_evaluator(plan).error_signal(stimulus)
        assert _same_bits(memoized, cold)

    def test_fresh_batch_runs_double_once_per_coefficient_group(
            self, monkeypatch):
        # hp's coefficients follow its data word length, so the two hp
        # widths form two coefficient groups; the input widths share one.
        # A fresh plan has no reference run to reuse.
        plan, _, stimulus = self._evaluator_and_stimulus()
        assignments = [{"x": 10}, {"x": 8}, {"hp": 9}, {"hp": 9, "x": 8}]
        assert list(plan.config_stack(assignments).coefficient_groups()
                    .values()) == [[0, 1], [2, 3]]
        fresh = CompiledPlan(plan.graph)
        calls = _count_runs(monkeypatch, fresh)
        SimulationEvaluator(fresh).evaluate_batch(assignments, stimulus)
        assert calls["double"] == 2


# Edits for TestSimulationErrorMemo: each changes one thing a leg reads,
# on the plan or in the call's arguments (the returned overrides).
def _requantize_data_path(plan):
    plan.requantize({"x": 10})
    return {}


def _tap_edge(plan):
    plan.requantize({"lp->hp": 9})
    return {}


def _truncate_sum(plan):
    node = plan.graph.node("sum")
    node.quantization = replace(node.quantization,
                                rounding=RoundingMode.TRUNCATE)
    return {}


def _edit_gain_in_place(plan):
    plan.graph.node("g").gain = 0.75
    return {}


def _other_stimulus(plan):
    return {"stimulus": {"x": uniform_white_noise(512, seed=4)}}


def _other_output(plan):
    return {"output": "z"}


class TestSimulationErrorMemo:
    """The plan keeps the last error record ``error_signal`` measured."""

    def _setup(self):
        plan = compile_plan(_fork_graph(second_output=True))
        evaluator = SimulationEvaluator(plan)
        stimulus = {"x": uniform_white_noise(512, seed=3)}
        return plan, evaluator, stimulus

    def test_same_state_twice_runs_neither_leg(self, monkeypatch):
        plan, evaluator, stimulus = self._setup()
        first = evaluator.error_signal(stimulus, output="y")
        calls = _count_runs(monkeypatch, plan)
        with observe(trace=False) as session:
            second = evaluator.error_signal(stimulus, output="y")
        assert calls == {"double": 0, "fixed": 0}
        assert _same_bits(first, second)
        counters = session.metrics.flattened()
        assert counters["sim.error_memo.hits"] == 1
        assert "sim.error_memo.misses" not in counters

    def test_memo_key_reads_the_signature_of_the_refresh(self, monkeypatch):
        # A miss and a hit each fingerprint the specs once, in the
        # refresh; the memo key reads the signature the refresh stored.
        import repro.analysis.simulation_method as simulation_module
        import repro.sfg.plan as plan_module

        plan, evaluator, stimulus = self._setup()
        real = plan_module.quantization_signature
        calls = []

        def counted(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(plan_module, "quantization_signature", counted)
        monkeypatch.setattr(simulation_module, "quantization_signature",
                            counted, raising=False)
        for outcome in ("misses", "hits"):
            calls.clear()
            with observe(trace=False) as session:
                evaluator.error_signal(stimulus, output="y")
            assert session.metrics.flattened()[
                f"sim.error_memo.{outcome}"] == 1
            assert calls == [plan.graph]

    @pytest.mark.parametrize("edit", [
        _requantize_data_path, _tap_edge, _truncate_sum,
        _edit_gain_in_place, _other_stimulus, _other_output,
    ], ids=["requantize", "edge-tap", "rounding", "gain-in-place",
            "stimulus", "output"])
    def test_any_edit_misses(self, monkeypatch, edit):
        plan, evaluator, stimulus = self._setup()
        evaluator.error_signal(stimulus, output="y")
        call = {"stimulus": stimulus, "output": "y"}
        call.update(edit(plan))
        calls = _count_runs(monkeypatch, plan)
        with observe(trace=False) as session:
            memoized = evaluator.error_signal(**call)
        assert calls["fixed"] == 1
        assert session.metrics.flattened()["sim.error_memo.misses"] == 1
        cold = _fresh_evaluator(plan).error_signal(**call)
        assert _same_bits(memoized, cold)

    def test_compare_at_two_resolutions_runs_one_fixed_run(self, monkeypatch):
        system = FrequencyDomainFilter(fractional_bits=12, n_psd=1024)
        stimulus = uniform_white_noise(4096, seed=5)
        calls = _count_runs(monkeypatch, system.evaluator.plan)

        def measure(make):
            # compare measures the power only; the error PSD at each
            # resolution comes from simulate on the same stimulus.
            comparisons = [make().compare(stimulus, methods=("psd",),
                                          n_psd=n_psd)
                           for n_psd in (16, 1024)]
            psds = [make().evaluator.simulate(
                {"x": stimulus}, n_psd=n_psd, discard_transient=64).error_psd
                for n_psd in (16, 1024)]
            return [c.simulation for c in comparisons], psds

        memoized, memoized_psds = measure(lambda: system)
        assert calls == {"double": 1, "fixed": 1}
        assert all(warm.error_psd is None for warm in memoized)
        # Every cold measurement runs on a system of its own.
        cold, cold_psds = measure(lambda: FrequencyDomainFilter(
            fractional_bits=12, n_psd=1024))
        for warm, fresh in zip(memoized, cold):
            assert warm.error_power == fresh.error_power
            assert warm.error_mean == fresh.error_mean
        for warm, fresh in zip(memoized_psds, cold_psds):
            assert _same_bits(warm.ac, fresh.ac)
            assert warm.mean == fresh.mean

    def test_records_are_read_only(self):
        plan, evaluator, stimulus = self._setup()
        measured = evaluator.error_signal(stimulus, output="y")
        memoized = evaluator.error_signal(stimulus, output="y")
        for record in (measured, memoized):
            assert not record.flags.writeable
            with pytest.raises(ValueError):
                record[0] = 1.0

    def test_evaluate_batch_ignores_the_memo(self, monkeypatch):
        # The batch neither reads the live config's record (it reruns the
        # fixed leg) nor overwrites it (the next error_signal still hits).
        plan, evaluator, stimulus = self._setup()
        measured = evaluator.error_signal(stimulus, output="y")
        calls = _count_runs(monkeypatch, plan)
        batch = evaluator.evaluate_batch([{}, {"x": 10}], stimulus,
                                         output="y")
        assert calls["fixed"] == 2
        again = evaluator.error_signal(stimulus, output="y")
        assert calls["fixed"] == 2
        assert again is measured
        assert batch[0].error_power == noise_power(measured)


def _requantize_coefficients(plan):
    # hp's coefficients follow its data word length.
    plan.requantize({"hp": 9})
    return {}


def _raw(value) -> bytes:
    """Raw bytes of an evaluation's result: a PSD, moments, an error
    record or a list of simulation results."""
    if isinstance(value, list):
        return b"".join(_raw(item) for item in value)
    if isinstance(value, SimulationResult):
        fields = (value.error_power, value.error_mean)
    elif hasattr(value, "ac"):
        fields = (value.ac, value.mean)
    elif hasattr(value, "variance"):
        fields = (value.mean, value.variance)
    else:
        fields = (value,)
    return b"".join(np.asarray(field).tobytes() for field in fields)


class TestMemosEqualFreshPlans:
    """After each edit of one sequence, every memoized answer of a plan —
    the psd, stats and tracked channels, the flat path functions, the
    batched walks' kept rows, the reference-run and last-measurement
    memos — has the raw bytes of a freshly compiled plan's."""

    _DELTAS = [{"hp": 8}, {"g": 9}, {"lp->hp": 7}, {"x": 11}, {}]

    @classmethod
    def _answers(cls, plan, stimulus) -> dict:
        evaluator = SimulationEvaluator(plan)
        return {
            "psd": evaluate_psd(plan, 64),
            "stats": evaluate_agnostic(plan),
            "tracked": evaluate_psd_tracked(plan, 64),
            "flat": evaluate_flat(plan),
            "psd_batch": evaluate_psd_batch(plan, 64, cls._DELTAS),
            "stats_batch": evaluate_agnostic_batch(plan, cls._DELTAS),
            "error": evaluator.error_signal(stimulus),
            "simulated_batch": evaluator.evaluate_batch(cls._DELTAS[:2],
                                                        stimulus),
        }

    def test_edit_sequence(self):
        plan = compile_plan(_fork_graph())
        stimulus = {"x": uniform_white_noise(512, seed=3)}
        edits = [lambda plan: {}, _requantize_data_path, _tap_edge,
                 _truncate_sum, _edit_gain_in_place, _requantize_coefficients]
        with observe(trace=False) as session:
            for edit in edits:
                edit(plan)
                fresh = self._answers(CompiledPlan(plan.graph), stimulus)
                # The first pass after an edit pulls dirty cones and
                # reuses rows; the second hits every memo.
                for _ in range(2):
                    memoized = self._answers(plan, stimulus)
                    for name, value in fresh.items():
                        assert _raw(memoized[name]) == _raw(value), \
                            (edit, name)
        counters = plan_memo(plan).counters()
        assert counters["cone_recomputes"] > 0
        assert counters["rows_reused"] > 0
        hits = session.metrics.flattened()
        assert hits["sim.reference_memo.hits"] > 0
        assert hits["sim.error_memo.hits"] > 0

"""Configuration-batched evaluation must be bit-identical to sequential.

The batched walks promise more than closeness: every row of a stacked
:class:`~repro.psd.spectrum.DiscretePsd` (and every entry of a batched
:class:`~repro.fixedpoint.noise_model.NoiseStats`) applies exactly the
same floating-point operations as the scalar walk of that configuration,
so the comparisons below use strict equality, not tolerances.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis._engine import plan_memo, walk_psd
from repro.analysis.agnostic_method import (
    evaluate_agnostic,
    evaluate_agnostic_batch,
)
from repro.analysis.evaluator import (
    ANALYTICAL_METHODS,
    estimate_noise,
    estimate_noise_batch,
)
from repro.analysis.flat_method import evaluate_flat, evaluate_flat_batch
from repro.analysis.psd_method import evaluate_psd, evaluate_psd_batch
from repro.analysis.simulation_method import SimulationEvaluator
from repro.fixedpoint.quantizer import RoundingMode
from repro.lti.fir_design import design_fir_highpass, design_fir_lowpass
from repro.lti.iir_design import design_iir_filter
from repro.sfg.builder import SfgBuilder
from repro.obs import observe
from repro.sfg.nodes import FirNode, InputNode
from repro.sfg.plan import CompiledPlan, compile_plan, parse_edge_key
from repro.systems import wordlength
from repro.systems.families import (
    build_dwt97_bank,
    build_polyphase_decimator,
    build_scalability_bank,
)
from repro.systems.pareto import budget_range, sweep_noise_budgets
from repro.systems.random_graphs import (
    COMPATIBLE_N_PSD,
    build_random_graph,
    random_assignments,
    random_deltas,
)
from repro.systems.wordlength import WordLengthOptimizer


def _cascade_graph(bits=12):
    b, a = design_iir_filter(4, 0.3, kind="lowpass", family="butterworth")
    builder = SfgBuilder("cascade")
    s = builder.input("x", fractional_bits=bits)
    s = builder.fir("f1", design_fir_lowpass(15, 0.4), s, fractional_bits=bits)
    s = builder.iir("i1", b, a, s, fractional_bits=bits)
    s = builder.gain("g1", 0.8, s, fractional_bits=bits)
    s = builder.fir("f2", design_fir_highpass(9, 0.5), s, fractional_bits=bits)
    builder.output("y", s)
    return builder.build()


def _multirate_graph(bits=10):
    builder = SfgBuilder("two-channel")
    s = builder.input("x", fractional_bits=bits)
    s = builder.fir("h0", design_fir_lowpass(9, 0.45), s, fractional_bits=bits)
    s = builder.downsample("down", s, factor=2)
    s = builder.upsample("up", s, factor=2)
    s = builder.fir("g0", design_fir_lowpass(9, 0.45), s, fractional_bits=bits)
    builder.output("y", s)
    return builder.build()


_CASCADE_STACK = [
    {"x": 12, "f1": 12, "i1": 12, "g1": 12, "f2": 12},
    {"x": 11, "f1": 12, "i1": 12, "g1": 12, "f2": 12},
    {"x": 12, "f1": 12, "i1": 10, "g1": 14, "f2": 12},
    {"x": 8, "f1": 9, "i1": 16, "g1": 12, "f2": None},
]


class TestPsdBatch:
    def test_rows_bit_identical_to_sequential(self):
        graph = _cascade_graph()
        plan = compile_plan(graph)
        stack = evaluate_psd_batch(plan, 128, _CASCADE_STACK)
        assert stack.size == len(_CASCADE_STACK)
        for k, assignment in enumerate(_CASCADE_STACK):
            plan.requantize(assignment)
            scalar = evaluate_psd(plan, 128)
            np.testing.assert_array_equal(stack.ac[k], scalar.ac)
            assert stack.mean[k] == scalar.mean
            assert stack.total_power[k] == scalar.total_power

    def test_multirate_rows_bit_identical(self):
        graph = _multirate_graph()
        plan = compile_plan(graph)
        assignments = [{"x": 10, "h0": 10, "g0": 10},
                       {"x": 8, "h0": 12, "g0": 9},
                       {"x": 14, "h0": 7, "g0": 11}]
        stack = evaluate_psd_batch(plan, 64, assignments)
        for k, assignment in enumerate(assignments):
            plan.requantize(assignment)
            scalar = evaluate_psd(plan, 64)
            np.testing.assert_array_equal(stack.ac[k], scalar.ac)
            assert stack.mean[k] == scalar.mean

    def test_select_extracts_scalar_psd(self):
        graph = _cascade_graph()
        stack = evaluate_psd_batch(graph, 64, _CASCADE_STACK)
        one = stack.select(2)
        np.testing.assert_array_equal(one.ac, stack.ac[2])
        assert one.mean == stack.mean[2]

    def test_batch_does_not_mutate_specs(self):
        graph = _cascade_graph(bits=12)
        evaluate_psd_batch(graph, 64, _CASCADE_STACK)
        for name in ("x", "f1", "i1", "g1", "f2"):
            assert graph.node(name).quantization.fractional_bits == 12

    def test_unknown_node_rejected(self):
        graph = _cascade_graph()
        with pytest.raises(ValueError, match="unknown"):
            evaluate_psd_batch(graph, 64, [{"nope": 8}])

    def test_empty_stack_rejected(self):
        graph = _cascade_graph()
        with pytest.raises(ValueError):
            evaluate_psd_batch(graph, 64, [])


class TestStatsBatch:
    def test_agnostic_entries_bit_identical(self):
        graph = _cascade_graph()
        plan = compile_plan(graph)
        batched = evaluate_agnostic_batch(plan, _CASCADE_STACK)
        for k, assignment in enumerate(_CASCADE_STACK):
            plan.requantize(assignment)
            scalar = evaluate_agnostic(plan)
            assert batched.mean[k] == scalar.mean
            assert batched.variance[k] == scalar.variance
            assert batched.power[k] == scalar.power

    def test_flat_entries_bit_identical(self):
        graph = _cascade_graph()
        plan = compile_plan(graph)
        batched = evaluate_flat_batch(plan, _CASCADE_STACK)
        for k, assignment in enumerate(_CASCADE_STACK):
            plan.requantize(assignment)
            scalar = evaluate_flat(plan)
            assert batched.mean[k] == scalar.mean
            assert batched.variance[k] == scalar.variance

    def test_flat_restores_quantization_state(self):
        graph = _cascade_graph(bits=12)
        evaluate_flat_batch(graph, _CASCADE_STACK)
        for name in ("x", "f1", "i1", "g1", "f2"):
            assert graph.node(name).quantization.fractional_bits == 12


class TestMethodTable:
    @pytest.mark.parametrize("method", ANALYTICAL_METHODS)
    def test_batched_rows_equal_scalar_dispatch(self, method):
        graph = _cascade_graph(bits=12)
        plan = compile_plan(graph)
        # Each row deviates from the live plan at its own keys only.
        assignments = [{"x": 10}, {"f1": 9}, {}, {"g1": 14, "f2": None}]
        batched = estimate_noise_batch(plan, method, 128, assignments)
        for k, assignment in enumerate(assignments):
            with plan.preserve_quantization():
                plan.requantize(assignment)
                expected = estimate_noise(plan, method, 128)
            assert tuple(column[k] for column in batched) == expected
        for name in ("x", "f1", "i1", "g1", "f2"):
            assert graph.node(name).quantization.fractional_bits == 12


class TestSimulationBatch:
    def test_matches_per_config_evaluation(self, rng):
        graph = _cascade_graph()
        plan = compile_plan(graph)
        evaluator = SimulationEvaluator(plan)
        stimulus = {"x": rng.uniform(-0.9, 0.9, 4096)}
        assignments = _CASCADE_STACK[:3]
        batched = evaluator.evaluate_batch(assignments, stimulus)
        assert len(batched) == 3
        for assignment, measured in zip(assignments, batched):
            plan.requantize(assignment)
            scalar = SimulationEvaluator(plan).evaluate(stimulus)
            assert measured.error_power == scalar.error_power
            assert measured.error_mean == scalar.error_mean
            assert measured.num_samples == scalar.num_samples

    def test_restores_quantization_state(self, rng):
        graph = _cascade_graph(bits=12)
        evaluator = SimulationEvaluator(compile_plan(graph))
        evaluator.evaluate_batch(_CASCADE_STACK[:2],
                                 {"x": rng.uniform(-0.9, 0.9, 1024)})
        for name in ("x", "f1", "i1", "g1", "f2"):
            assert graph.node(name).quantization.fractional_bits == 12

    def test_coefficient_free_nodes_share_one_group(self):
        # Configs differing only at nodes without quantized coefficients
        # (here the input) share every transfer function, so they must
        # land in one group and share the double-precision reference run.
        graph = _cascade_graph()
        from repro.sfg.plan import compile_plan as _compile
        plan = _compile(graph)
        stack = plan.config_stack([
            {"x": 12}, {"x": 10}, {"x": 8},
        ])
        assert list(stack.coefficient_groups().values()) == [[0, 1, 2]]

    def test_coefficient_tracking_nodes_split_groups(self):
        graph = _cascade_graph()
        from repro.sfg.plan import compile_plan as _compile
        plan = _compile(graph)
        stack = plan.config_stack([
            {"f1": 12}, {"f1": 10}, {"f1": 12, "x": 9},
        ])
        assert list(stack.coefficient_groups().values()) == [[0, 2], [1]]


def _bitwise(a, b) -> bool:
    """Equal values *and* equal zero signs (``-0.0`` is not ``+0.0``)."""
    a, b = np.asarray(a), np.asarray(b)
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _cone_size(plan, delta) -> int:
    """Steps a one-key delta can change: the downstream cone of the step
    it deviates at, or nothing when it restates the live width."""
    if not delta:
        return 0
    ((key, bits),) = delta.items()
    if key in plan.index_of:
        index = plan.index_of[key]
        live = plan.steps[index].node.quantization.fractional_bits
    else:
        source, target = parse_edge_key(key)
        index = plan.index_of[target]
        live = plan.graph.node(source).quantization.edge_bits_for(target)
    return 0 if bits == live else len(plan.downstream_cone([index]))


class TestRowSparseWalk:
    """Memo-backed batched walks compute a config's row only in its cone
    and copy the memo's value everywhere else — still bit-identical."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graph_rows_equal_cold_scalar(self, seed):
        self._check(build_random_graph(seed, blocks=6, multirate=True), seed)

    def test_bank_rows_equal_cold_scalar(self):
        self._check(build_scalability_bank(branches=16), 7)

    @staticmethod
    def _check(graph, seed):
        plan = compile_plan(graph)
        # The incumbent the deltas deviate from, fanout taps included.
        plan.requantize(random_assignments(graph, seed, 1, edges=True)[0],
                        allow_enable=True)
        deltas = random_deltas(graph, seed + 1, 13)
        kinds = {"edge" if "->" in key else "off" if bits is None
                 else "node" for delta in deltas
                 for key, bits in delta.items()}
        assert {} in deltas and {"node", "off"} <= kinds
        cones = sum(_cone_size(plan, delta) for delta in deltas)
        memo = plan_memo(plan)
        before = memo.counters()
        psd = evaluate_psd_batch(plan, COMPATIBLE_N_PSD, deltas)
        stats = evaluate_agnostic_batch(plan, deltas)
        after = memo.counters()
        assert after["rows_computed"] - before["rows_computed"] == 2 * cones
        assert (after["rows_copied"] - before["rows_copied"]
                == 2 * (len(deltas) * len(plan.steps) - cones))
        for k, delta in enumerate(deltas):
            with plan.preserve_quantization():
                plan.requantize(delta, allow_enable=True)
                fresh = CompiledPlan(plan.graph)
                scalar_psd = evaluate_psd(fresh, COMPATIBLE_N_PSD)
                scalar_stats = evaluate_agnostic(fresh)
            assert _bitwise(psd.ac[k], scalar_psd.ac), delta
            assert _bitwise(psd.mean[k], scalar_psd.mean), delta
            assert _bitwise(stats.mean[k], scalar_stats.mean), delta
            assert _bitwise(stats.variance[k], scalar_stats.variance), delta

    def test_greedy_round_on_the_bank_computes_only_its_cones(self):
        # One optimizer round on the 64-branch bank: 65 one-key
        # decrements against a uniform incumbent.  Dense, that would be
        # 65 x 129 rows; row-sparse, it is the sum of the cones.
        plan = compile_plan(build_scalability_bank(branches=64))
        tunable = [step.name for step in plan.steps
                   if step.node.quantization.enabled]
        plan.requantize({name: 12 for name in tunable})
        deltas = [{name: 11} for name in tunable]
        memo = plan_memo(plan)
        before = memo.counters()
        evaluate_psd_batch(plan, 64, deltas)
        computed = memo.counters()["rows_computed"] - before["rows_computed"]
        assert (len(deltas), len(plan.steps)) == (65, 129)
        assert computed == sum(_cone_size(plan, delta)
                               for delta in deltas) == 641

    def test_silent_rows_keep_negative_zero_means(self):
        # The zero mean of x turns into -0.0 through the negative gain.
        # Only the second config quantizes g; the first must skip the
        # injection like the scalar walk does, not add +0.0.
        builder = SfgBuilder("negative-zero")
        x = builder.input("x", fractional_bits=12)
        builder.output("y", builder.gain("g", -0.5, x))
        plan = compile_plan(builder.build())
        deltas = [{"x": 9}, {"x": 9, "g": 10}]
        psd = evaluate_psd_batch(plan, 16, deltas)
        stats = evaluate_agnostic_batch(plan, deltas)
        assert np.signbit(psd.mean[0]) and np.signbit(stats.mean[0])
        for k, delta in enumerate(deltas):
            with plan.preserve_quantization():
                plan.requantize(delta, allow_enable=True)
                fresh = CompiledPlan(plan.graph)
                assert _bitwise(psd.mean[k], evaluate_psd(fresh, 16).mean)
                assert _bitwise(stats.mean[k], evaluate_agnostic(fresh).mean)


def _same_bytes(a, b) -> bool:
    """Equal raw bytes: every value and every zero sign."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


class TestLevelWalk:
    """The batched walks run the plan's level groups, one rule
    application per group written in place into rows that later walks
    reuse; every row keeps the raw bytes of its config's cold scalar
    walk, on the plan and on a fresh one."""

    @staticmethod
    def _check(plan, deltas, n_psd):
        batches = [(evaluate_psd_batch(system, n_psd, deltas),
                    evaluate_agnostic_batch(system, deltas))
                   for system in (plan, CompiledPlan(plan.graph))]
        for k, delta in enumerate(deltas):
            with plan.preserve_quantization():
                plan.requantize(delta, allow_enable=True)
                fresh = CompiledPlan(plan.graph)
                psd = evaluate_psd(fresh, n_psd)
                stats = evaluate_agnostic(fresh)
            for batch_psd, batch_stats in batches:
                assert _same_bytes(batch_psd.ac[k], psd.ac), delta
                assert _same_bytes(batch_psd.mean[k], psd.mean), delta
                assert _same_bytes(batch_stats.mean[k], stats.mean), delta
                assert _same_bytes(batch_stats.variance[k],
                                   stats.variance), delta

    def test_bank_round_with_the_input_delta(self):
        plan = compile_plan(build_scalability_bank(branches=64))
        tunable = [step.name for step in plan.steps
                   if step.node.quantization.enabled]
        plan.requantize({name: 12 for name in tunable})
        assert "x" in tunable and len(tunable) == 65
        self._check(plan, [{name: 11} for name in tunable], 1024)

    @pytest.mark.parametrize("build", [build_dwt97_bank,
                                       build_polyphase_decimator])
    def test_multirate_scenarios(self, build):
        graph = build()
        plan = compile_plan(graph)
        assert len({value.n_bins for value in walk_psd(plan, 256)}) > 1
        self._check(plan, random_deltas(graph, 5, 13), 256)

    def test_tapped_graph(self):
        graph = build_random_graph(2, blocks=8)
        plan = compile_plan(graph)
        plan.requantize(random_assignments(graph, 4, 1, edges=True)[0],
                        allow_enable=True)
        assert any(step.edge_taps for step in plan.steps)
        deltas = random_deltas(graph, 6, 13)
        assert any("->" in key for delta in deltas for key in delta)
        self._check(plan, deltas, COMPATIBLE_N_PSD)

    def test_published_values_keep_their_bytes(self):
        plan = compile_plan(build_scalability_bank(branches=8))
        held = evaluate_psd_batch(plan, 64, [{"branch0": 9}, {"x": 10}])
        scalar = evaluate_psd(plan, 64)
        memo = walk_psd(plan, 64)
        snapshot = [held.ac.tobytes(), held.mean.tobytes(),
                    scalar.ac.tobytes()] + [
            value.ac.tobytes() + value.mean.tobytes() for value in memo]
        # Later walks on the same plan reuse its rows: other stacks and
        # an accepted move.
        evaluate_psd_batch(plan, 64, [{"branch1": 8}, {}, {"x": 7}])
        evaluate_psd_batch(plan, 64, [{"branch2": 11}, {"branch0": 6}])
        plan.requantize({"branch3": 10})
        evaluate_psd_batch(plan, 64, [{"branch4": 9}, {"x": 9}])
        assert snapshot == [held.ac.tobytes(), held.mean.tobytes(),
                            scalar.ac.tobytes()] + [
            value.ac.tobytes() + value.mean.tobytes() for value in memo]
        # The memo rows the move changed were synced into the store.
        self._check(plan, [{"branch3": 9}, {"branch5": 8}, {}], 64)

    def test_bank_runs_nine_groups_and_a_chain_one_per_step(self):
        bank = compile_plan(build_scalability_bank(branches=64))
        chain = compile_plan(_cascade_graph())
        assert [len(group.steps) for group in bank.levels] == \
            [1, 64, 32, 16, 8, 4, 2, 1, 1]
        assert [group.steps for group in chain.levels] == \
            [(step,) for step in chain.steps]
        with observe() as session:
            # The input's cone is the whole graph: every level computes.
            evaluate_psd_batch(bank, 64, [{}, {"x": 9}])
            evaluate_agnostic_batch(chain, [{}, {"x": 9}])
        assert [entry["attrs"]["groups"]
                for entry in session.trace.snapshot()
                if entry["name"] == "analysis.walk_batch"] == \
            [9, len(chain.steps)]


def _tapped_graph():
    """A random multirate graph carrying live fanout taps."""
    graph = build_random_graph(2, blocks=8)
    compile_plan(graph).requantize(
        random_assignments(graph, 4, 1, edges=True)[0], allow_enable=True)
    return graph


class TestCrossRoundReuse:
    """A batched walk keeps its rows for the next one, which reuses them
    in place for every config of the same deviation whose upstream no
    rebuild touched: every greedy round keeps the raw bytes of a
    batched walk on a fresh plan."""

    @staticmethod
    def _replay(monkeypatch, graph, granularity, n_psd, edits):
        """Optimize ``graph`` and check each greedy round's batched walks
        against the batched walks of a fresh plan, which keeps no row;
        ``edits`` maps a round to an edit of the graph made before it.
        Returns the rows each round's walks reused."""
        real = wordlength.estimate_noise_batch
        reused = []

        def checked(plan, method, n_psd, deltas):
            if len(reused) in edits:
                edits[len(reused)](graph)
            memo = plan_memo(plan)
            before = memo.counters()["rows_reused"]
            psd = evaluate_psd_batch(plan, n_psd, deltas)
            stats = evaluate_agnostic_batch(plan, deltas)
            reused.append(memo.counters()["rows_reused"] - before)
            fresh = CompiledPlan(graph)
            fresh_psd = evaluate_psd_batch(fresh, n_psd, deltas)
            fresh_stats = evaluate_agnostic_batch(fresh, deltas)
            assert _same_bytes(psd.ac, fresh_psd.ac), len(reused)
            assert _same_bytes(psd.mean, fresh_psd.mean), len(reused)
            assert _same_bytes(stats.mean, fresh_stats.mean), len(reused)
            assert _same_bytes(stats.variance, fresh_stats.variance), \
                len(reused)
            return real(plan, method, n_psd, deltas)

        monkeypatch.setattr(wordlength, "estimate_noise_batch", checked)
        # Between two uniform widths (a bit is a factor of about 4), so
        # the greedy search has slack for several moves.
        budget = 3.5 * float(evaluate_psd(graph, n_psd).total_power)
        WordLengthOptimizer(graph, n_psd=n_psd,
                            granularity=granularity).optimize(budget)
        return reused

    @pytest.mark.parametrize("build, granularity, n_psd", [
        (lambda: build_scalability_bank(branches=16), "node", 64),
        (lambda: build_scalability_bank(branches=16), "edge", 64),
        (_cascade_graph, "node", 64),
        (build_polyphase_decimator, "node", 64),
        (_tapped_graph, "node", COMPATIBLE_N_PSD),
    ], ids=["bank-node", "bank-edge", "chain", "polyphase", "tapped"])
    def test_greedy_rounds_equal_fresh_plans(self, monkeypatch, build,
                                             granularity, n_psd):
        graph = build()
        firs = [node for node in graph.nodes.values()
                if isinstance(node, FirNode)]
        quantized = [node for node in graph.nodes.values()
                     if node.quantization.enabled
                     and not isinstance(node, InputNode)]

        def edit_taps(graph):
            firs[0].taps[0] += 2.0 ** -7

        def truncate(graph):
            quantized[-1].quantization = replace(
                quantized[-1].quantization, rounding=RoundingMode.TRUNCATE)

        reused = self._replay(monkeypatch, graph, granularity, n_psd,
                              {2: edit_taps, 4: truncate})
        # Both edits were made, and later rounds reused rows.
        assert len(reused) > 4
        assert reused[0] == 0 and sum(reused[1:]) > 0

    @pytest.mark.parametrize("edit", ["rounding", "pinned"])
    def test_a_rebuild_that_moves_no_live_value_still_recomputes(self,
                                                                  edit):
        # x is silent (its input grid is no finer than its width) and
        # h's coefficient precision gets pinned at its live width, so
        # neither edit moves a live value; both change what the
        # candidates one bit narrower read.
        builder = SfgBuilder("silent-edits")
        x = builder.input("x", fractional_bits=10)
        builder.output("y", builder.fir("h", design_fir_lowpass(9, 0.4), x,
                                        fractional_bits=10))
        graph = builder.build()
        graph.node("x").quantization = replace(
            graph.node("x").quantization, input_fractional_bits=10)
        plan = compile_plan(graph)
        deltas = [{"x": 9}, {"h": 9}, {"x": 9, "h": 9}]
        first = (evaluate_psd_batch(plan, 64, deltas),
                 evaluate_agnostic_batch(plan, deltas))
        epoch = plan.epoch
        if edit == "rounding":
            node, change = graph.node("x"), {"rounding": RoundingMode.TRUNCATE}
        else:
            node, change = graph.node("h"), {"coefficient_fractional_bits": 10}
        node.quantization = replace(node.quantization, **change)
        second = (evaluate_psd_batch(plan, 64, deltas),
                  evaluate_agnostic_batch(plan, deltas))
        assert plan.steps_rebuilt_since(epoch).tolist() == \
            [plan.index_of[node.name]]
        fresh = CompiledPlan(graph)
        psd, stats = second
        fresh_psd = evaluate_psd_batch(fresh, 64, deltas)
        fresh_stats = evaluate_agnostic_batch(fresh, deltas)
        assert _same_bytes(psd.ac, fresh_psd.ac)
        assert _same_bytes(psd.mean, fresh_psd.mean)
        assert _same_bytes(stats.mean, fresh_stats.mean)
        assert _same_bytes(stats.variance, fresh_stats.variance)
        assert not _same_bytes(second[0].ac, first[0].ac)

    def test_the_span_and_counters_split_the_rows(self):
        plan = compile_plan(build_scalability_bank(branches=8))
        deltas = [{name: 11} for name in plan.index_of
                  if plan.graph.node(name).quantization.enabled]
        cones = sum(_cone_size(plan, delta) for delta in deltas)
        with observe() as session:
            evaluate_psd_batch(plan, 64, deltas)
            plan.requantize({"branch0": 11})
            evaluate_psd_batch(plan, 64, deltas)
            plan_memo(plan).clear()
            evaluate_psd_batch(plan, 64, deltas)
        first, second, cleared = [
            entry["attrs"] for entry in session.trace.snapshot()
            if entry["name"] == "analysis.walk_batch"]
        assert (first["rows_computed"], first["rows_reused"]) == (cones, 0)
        # branch0's own config now deviates by nothing; every other
        # config recomputes only the steps downstream of branch0.
        assert second["rows_reused"] > 0
        assert second["rows_computed"] + second["rows_reused"] < cones
        # A cleared memo keeps no row: every cone is computed again.
        assert (cleared["rows_computed"], cleared["rows_reused"]) == \
            (sum(_cone_size(plan, delta) for delta in deltas), 0)
        counters = plan_memo(plan).counters()
        assert counters["rows_computed"] == first["rows_computed"] \
            + second["rows_computed"] + cleared["rows_computed"]
        assert counters["rows_reused"] == second["rows_reused"]

    def test_the_store_keeps_only_the_last_walks_rows(self, monkeypatch):
        # Over a sweep's greedy rounds the store never outgrows the size
        # its first walk gave it: the rows of older walks are free again.
        graph = build_scalability_bank(branches=16)
        plan = compile_plan(graph)
        real = wordlength.estimate_noise_batch
        capacities = []

        def recorded(*args, **options):
            result = real(*args, **options)
            capacities.append(len(
                plan_memo(plan).stores["psd"].blocks[64].arrays[0]))
            return result

        monkeypatch.setattr(wordlength, "estimate_noise_batch", recorded)
        sweep_noise_budgets(graph, budget_range(1e-5, 1e-8, 4), n_psd=64)
        assert len(capacities) > 20
        assert set(capacities) == {capacities[0]}
        # A walk on another grid reuses nothing of the last one; a second
        # walk on that grid reuses every row of the candidates' cones.
        graph = build_scalability_bank(branches=16)
        plan = compile_plan(graph)
        deltas = [{"branch1": 9}, {"x": 9}]
        cones = sum(_cone_size(plan, delta) for delta in deltas)
        with observe() as session:
            evaluate_psd_batch(plan, 64, deltas)
            coarse = evaluate_psd_batch(plan, 32, deltas)
            again = evaluate_psd_batch(plan, 32, deltas)
        assert [(entry["attrs"]["rows_computed"],
                 entry["attrs"]["rows_reused"])
                for entry in session.trace.snapshot()
                if entry["name"] == "analysis.walk_batch"] == \
            [(cones, 0), (cones, 0), (0, cones)]
        fresh = evaluate_psd_batch(CompiledPlan(graph), 32, deltas)
        for value in (coarse, again):
            assert _same_bytes(value.ac, fresh.ac)
            assert _same_bytes(value.mean, fresh.mean)

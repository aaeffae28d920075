"""Unit tests for the word-length optimization use-case."""

import dataclasses

import pytest

import repro.analysis.evaluator as evaluator_module
from repro.analysis.psd_method import evaluate_psd
from repro.campaign.registry import build_scenario
from repro.fixedpoint.quantizer import RoundingMode
from repro.lti.fir_design import design_fir_highpass, design_fir_lowpass
from repro.sfg.builder import SfgBuilder
from repro.systems.families import build_scalability_bank
from repro.systems.filter_bank import build_filter_graph, generate_fir_bank, generate_iir_bank
from repro.systems.wordlength import BudgetUnreachableError, WordLengthOptimizer


def _two_stage_graph(bits=12):
    builder = SfgBuilder("wl")
    x = builder.input("x", fractional_bits=bits)
    lp = builder.fir("lp", design_fir_lowpass(15, 0.4), x, fractional_bits=bits)
    hp = builder.fir("hp", design_fir_highpass(15, 0.5), lp, fractional_bits=bits)
    builder.output("y", hp)
    return builder.build()


class TestUniformSearch:
    def test_uniform_search_meets_budget(self):
        graph = _two_stage_graph()
        optimizer = WordLengthOptimizer(graph, method="psd", n_psd=128,
                                        min_bits=4, max_bits=20)
        budget = 1e-7
        assignment = optimizer.uniform_search(budget)
        assert len(set(assignment.values())) == 1
        assert evaluate_psd(graph, 128).total_power <= budget

    def test_tighter_budget_needs_more_bits(self):
        graph = _two_stage_graph()
        optimizer = WordLengthOptimizer(graph, n_psd=128, min_bits=4,
                                        max_bits=22)
        loose = optimizer.uniform_search(1e-5)
        tight = optimizer.uniform_search(1e-9)
        assert list(tight.values())[0] > list(loose.values())[0]

    def test_impossible_budget_rejected(self):
        optimizer = WordLengthOptimizer(_two_stage_graph(), n_psd=64,
                                        min_bits=4, max_bits=8)
        with pytest.raises(BudgetUnreachableError):
            optimizer.uniform_search(1e-12)

    def test_non_positive_budget_rejected(self):
        optimizer = WordLengthOptimizer(_two_stage_graph(), n_psd=64)
        with pytest.raises(ValueError):
            optimizer.uniform_search(0.0)

    @pytest.mark.parametrize("budget",
                             [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_budget_rejected(self, budget):
        # Regression: NaN slipped through the `budget <= 0` guard (every
        # comparison with NaN is False), so the binary search "converged"
        # on nonsense instead of failing fast.  Infinities are equally
        # meaningless as noise budgets.
        optimizer = WordLengthOptimizer(_two_stage_graph(), n_psd=64)
        with pytest.raises(ValueError, match="finite"):
            optimizer.uniform_search(budget)
        with pytest.raises(ValueError, match="finite"):
            optimizer.optimize(budget)


class TestGreedyOptimization:
    def test_result_meets_budget_and_beats_uniform(self):
        graph = _two_stage_graph()
        optimizer = WordLengthOptimizer(graph, method="psd", n_psd=128,
                                        min_bits=4, max_bits=20)
        budget = 1e-7
        uniform = optimizer.uniform_search(budget)
        result = optimizer.optimize(budget)
        assert result.noise_power <= budget
        assert result.total_bits <= sum(uniform.values())
        assert result.evaluations > 0
        assert result.history[0][0] >= result.history[-1][0]

    def test_assignment_applied_to_graph(self):
        graph = _two_stage_graph()
        optimizer = WordLengthOptimizer(graph, n_psd=64, min_bits=4,
                                        max_bits=18)
        result = optimizer.optimize(1e-6)
        for name, bits in result.assignment.items():
            assert graph.node(name).quantization.fractional_bits == bits

    def test_agnostic_and_flat_drivers_also_work(self):
        for method in ("agnostic", "flat"):
            graph = _two_stage_graph()
            optimizer = WordLengthOptimizer(graph, method=method, n_psd=64,
                                            min_bits=4, max_bits=18)
            result = optimizer.optimize(1e-6)
            assert result.noise_power <= 1e-6

    def test_graph_without_quantized_nodes_rejected(self):
        builder = SfgBuilder("plain")
        x = builder.input("x")
        h = builder.fir("h", [1.0], x)
        builder.output("y", h)
        with pytest.raises(ValueError):
            WordLengthOptimizer(builder.build())

    def test_invalid_bit_range_rejected(self):
        with pytest.raises(ValueError):
            WordLengthOptimizer(_two_stage_graph(), min_bits=8, max_bits=4)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            WordLengthOptimizer(_two_stage_graph(), method="psychic")

    def test_method_checked_before_any_evaluation(self):
        with pytest.raises(ValueError, match="n_psd must be at least 2"):
            WordLengthOptimizer(_two_stage_graph(), n_psd=1)
        # N_PSD does not concern the moment methods.
        WordLengthOptimizer(_two_stage_graph(), method="flat", n_psd=1)
        # psd_tracked has no batched walk to drive the search with.
        with pytest.raises(ValueError, match="unknown method"):
            WordLengthOptimizer(_two_stage_graph(), method="psd_tracked")
        multirate = build_scenario("polyphase_decimator").graph
        with pytest.raises(NotImplementedError, match="multirate node"):
            WordLengthOptimizer(multirate, method="flat")


def _fork_graph(bits=12):
    """A lowpass feeding a highpass and a gain branch: one fanout node,
    so edge granularity has taps to tune."""
    builder = SfgBuilder("wl-fork")
    x = builder.input("x", fractional_bits=bits)
    lp = builder.fir("lp", design_fir_lowpass(15, 0.4), x,
                     fractional_bits=bits)
    hp = builder.fir("hp", design_fir_highpass(9, 0.5), lp,
                     fractional_bits=bits)
    g = builder.gain("g", 0.5, lp, fractional_bits=bits)
    builder.output("y", builder.add("s", [hp, g], fractional_bits=bits))
    return builder.build()


def _same_search(result, other):
    assert result.assignment == other.assignment
    assert result.noise_power == other.noise_power
    assert result.evaluations == other.evaluations
    assert result.history == other.history


class TestBatchedGreedyEquivalence:
    """Batched rounds must be bit-identical to the sequential baseline."""

    @pytest.mark.parametrize("method", ["psd", "flat", "agnostic"])
    def test_identical_on_cascade(self, method, sequential_rounds):
        budget = 1e-6
        batched = WordLengthOptimizer(_two_stage_graph(), method=method,
                                      n_psd=128).optimize(budget)
        sequential_rounds()
        sequential = WordLengthOptimizer(_two_stage_graph(), method=method,
                                         n_psd=128).optimize(budget)
        _same_search(batched, sequential)

    def test_identical_on_table1_filter_bank(self, sequential_rounds):
        # The Table-I graphs tie coefficient precision to the data path,
        # so the batched rounds exercise per-config frequency responses.
        entries = generate_fir_bank(2) + generate_iir_bank(2)
        budget = 1e-7
        batched = [WordLengthOptimizer(build_filter_graph(entry, 16),
                                       n_psd=128).optimize(budget)
                   for entry in entries]
        sequential_rounds()
        for entry, result in zip(entries, batched):
            sequential = WordLengthOptimizer(
                build_filter_graph(entry, 16), n_psd=128).optimize(budget)
            assert result.assignment == sequential.assignment, entry.name
            assert result.noise_power == sequential.noise_power, entry.name
            assert result.history == sequential.history, entry.name

    @pytest.mark.parametrize("granularity", ["node", "edge"])
    @pytest.mark.parametrize("method", ["psd", "flat", "agnostic"])
    def test_identical_to_cold_run(self, method, granularity,
                                   fresh_plan_search):
        # Memo-backed row-sparse rounds vs the same search with every
        # evaluation on a freshly compiled plan.
        budget = 1e-6
        warm = WordLengthOptimizer(_fork_graph(), method=method, n_psd=128,
                                   granularity=granularity).optimize(budget)
        fresh_plan_search()
        cold = WordLengthOptimizer(
            _fork_graph(), method=method, n_psd=128,
            granularity=granularity).optimize(budget)
        _same_search(warm, cold)
        assert (granularity == "edge") == any("->" in key
                                              for key in warm.assignment)


class TestIncrementalMode:
    """Rounds of one-key deltas against the incumbent's noise memo."""

    @pytest.mark.parametrize("method", ["psd", "flat", "agnostic"])
    def test_incremental_identical_to_sequential(self, method,
                                                 sequential_rounds):
        # Edge granularity: candidates mix node and fanout-tap deltas.
        budget = 1e-6
        incremental = WordLengthOptimizer(
            _fork_graph(), method=method, n_psd=128,
            granularity="edge").optimize(budget)
        sequential_rounds()
        sequential = WordLengthOptimizer(
            _fork_graph(), method=method, n_psd=128,
            granularity="edge").optimize(budget)
        _same_search(incremental, sequential)

    def test_plan_tracks_the_incumbent(self, monkeypatch):
        # After every accepted move the plan holds the incumbent, so the
        # next round's candidates deviate at one key each.
        optimizer = WordLengthOptimizer(_two_stage_graph(), n_psd=128)
        seen = []
        real = evaluator_module.evaluate_psd_batch

        def spy(plan, n_psd, deltas, output=None):
            live = {name: plan.graph.node(name).quantization.fractional_bits
                    for name in optimizer._tunable}
            seen.append((live, deltas))
            return real(plan, n_psd, deltas, output=output)

        monkeypatch.setattr(evaluator_module, "evaluate_psd_batch", spy)
        result = optimizer.optimize(1e-6)
        assert len(seen) == len(result.history)
        for live, deltas in seen:
            assert all(len(delta) == 1 for delta in deltas)
            for delta in deltas:
                ((name, bits),) = delta.items()
                assert bits == live[name] - 1
        assert seen[-1][0] == result.assignment

    def test_work_split_counters(self):
        budget = 1e-6
        optimizer = WordLengthOptimizer(_two_stage_graph(), n_psd=128)
        first = optimizer.optimize(budget)
        # One cold memo build; every later pull — uniform-search points,
        # the incumbent after each move — recomputes a dirty cone.
        assert first.full_walks == 1
        assert first.cone_recomputes >= len(first.history)
        # A second budget on the same optimizer reuses the memo.
        second = optimizer.optimize(budget / 4)
        assert second.full_walks == 0
        assert second.cone_recomputes > 0


class TestEvaluationAccounting:
    """`evaluations` must count distinct candidate evaluations exactly."""

    def _counting_optimizer(self, monkeypatch, sequential_rounds, batched):
        if not batched:
            sequential_rounds()
        counter = {"evaluations": 0}
        real_scalar = evaluator_module.evaluate_psd
        real_batch = evaluator_module.evaluate_psd_batch

        def counting_scalar(system, n_psd, *args, **kwargs):
            counter["evaluations"] += 1
            return real_scalar(system, n_psd, *args, **kwargs)

        def counting_batch(system, n_psd, assignments, *args, **kwargs):
            counter["evaluations"] += len(assignments)
            return real_batch(system, n_psd, assignments, *args, **kwargs)

        monkeypatch.setattr(evaluator_module, "evaluate_psd",
                            counting_scalar)
        monkeypatch.setattr(evaluator_module, "evaluate_psd_batch",
                            counting_batch)
        optimizer = WordLengthOptimizer(_two_stage_graph(), method="psd",
                                        n_psd=128)
        return optimizer, counter

    @pytest.mark.parametrize("batched", [True, False])
    def test_reported_count_matches_actual_calls(self, monkeypatch,
                                                 sequential_rounds, batched):
        optimizer, counter = self._counting_optimizer(
            monkeypatch, sequential_rounds, batched)
        result = optimizer.optimize(1e-7)
        assert result.evaluations == counter["evaluations"]

    @pytest.mark.parametrize("batched", [True, False])
    def test_no_reevaluation_of_known_powers(self, monkeypatch,
                                             sequential_rounds, batched):
        # history[0] comes from the binary search and the final power from
        # the accepting round: the count is exactly the uniform-search
        # evaluations plus one per greedy candidate, nothing on top.
        optimizer, counter = self._counting_optimizer(
            monkeypatch, sequential_rounds, batched)
        result = optimizer.optimize(1e-7)
        # Every accepted move comes from one full candidate round, plus one
        # final round that accepted nothing; on this graph no node reaches
        # min_bits, so every round proposes one candidate per tunable node.
        assert all(bits > optimizer.min_bits
                   for bits in result.assignment.values())
        greedy_evaluations = len(result.history) * len(optimizer._tunable)
        uniform_evaluations = result.evaluations - greedy_evaluations
        # Binary search over [4, 20] costs 1 (feasibility at max_bits)
        # plus at most ceil(log2(width)) probes — and crucially not the
        # extra history[0] / final_power evaluations the seed version paid.
        assert 1 <= uniform_evaluations <= 6
        assert result.evaluations == counter["evaluations"]


def _same_bits(result, expected):
    """Same search, compared bit for bit."""
    assert result.assignment == expected.assignment
    assert result.total_bits == expected.total_bits
    assert result.noise_power.hex() == expected.noise_power.hex()
    assert [(cost, power.hex()) for cost, power in result.history] == \
        [(cost, power.hex()) for cost, power in expected.history]


def _counting_widths(monkeypatch, optimizer) -> list:
    """The uniform widths ``optimizer`` evaluates, in order (the binary
    search is the only caller of ``_noise_power``)."""
    widths = []
    real = optimizer._noise_power

    def counting(assignment):
        widths.append(set(assignment.values()).pop())
        return real(assignment)

    monkeypatch.setattr(optimizer, "_noise_power", counting)
    return widths


class TestUniformWidthTable:
    """A width an earlier search evaluated is read back, not evaluated
    again, while nothing but the optimizer's own requantizing changed
    the plan."""

    BUDGETS = (1e-5, 1e-6, 1e-7, 1e-8)

    @staticmethod
    def _bank():
        return build_scalability_bank(branches=8)

    def test_later_budgets_match_fresh_optimizers(self, monkeypatch):
        optimizer = WordLengthOptimizer(self._bank(), n_psd=64)
        widths = _counting_widths(monkeypatch, optimizer)
        results, evaluated = [], []
        for budget in self.BUDGETS:
            before = len(widths)
            results.append(optimizer.optimize(budget))
            evaluated.append(len(widths) - before)
        # Each width is evaluated once over the whole sweep, and every
        # budget after the first reads some from the table.
        assert len(widths) == len(set(widths)) == \
            len(optimizer._uniform_powers)
        assert all(count < evaluated[0] for count in evaluated[1:])
        for budget, result, count in zip(self.BUDGETS, results, evaluated):
            fresh = WordLengthOptimizer(self._bank(), n_psd=64)
            probed = _counting_widths(monkeypatch, fresh)
            expected = fresh.optimize(budget)
            _same_bits(result, expected)
            # Only the widths read from the table go uncounted.
            assert expected.evaluations - result.evaluations == \
                len(probed) - count

    def test_the_span_records_the_reused_widths(self, monkeypatch):
        from repro.obs import observe

        optimizer = WordLengthOptimizer(self._bank(), n_psd=64)
        widths = _counting_widths(monkeypatch, optimizer)
        with observe() as session:
            optimizer.optimize(1e-6)
            first = len(widths)
            assignment = optimizer.uniform_search(1e-8)
        reused = [entry["attrs"]["reused"]
                  for entry in session.trace.snapshot()
                  if entry["name"] == "optimizer.uniform_search"]
        # 24 and 14 bits open every search over [4, 24].
        assert reused[0] == 0 and reused[1] >= 2
        probes = 1 + len(list(_binary_search_probes(4, 24,
                                                    assignment["x"])))
        assert reused[1] + len(widths) - first == probes
        # The search leaves the plan at the width it returns.
        assert {optimizer.graph.node(name).quantization.fractional_bits
                for name in assignment} == set(assignment.values())

    @pytest.mark.parametrize("edit", ["taps", "rounding", "pinned",
                                      "pinned_at_live_width"])
    def test_an_edit_between_searches_drops_the_table(self, edit):
        def apply(graph, first):
            node = graph.node("lp")
            if edit == "taps":
                node.taps[0] += 2.0 ** -6
            elif edit == "rounding":
                node.quantization = dataclasses.replace(
                    node.quantization, rounding=RoundingMode.TRUNCATE)
            else:
                # Pinned at the width the first search left lp at, the
                # coefficient precision changes no step's live signature,
                # only the responses at every other width.
                pinned = (first.assignment["lp"]
                          if edit == "pinned_at_live_width" else 16)
                node.quantization = dataclasses.replace(
                    node.quantization, coefficient_fractional_bits=pinned)

        graph = _two_stage_graph()
        optimizer = WordLengthOptimizer(graph, n_psd=128)
        first = optimizer.optimize(1e-6)
        apply(graph, first)
        second = optimizer.optimize(1e-7)
        fresh_graph = _two_stage_graph()
        apply(fresh_graph, first)
        expected = WordLengthOptimizer(fresh_graph, n_psd=128).optimize(1e-7)
        _same_bits(second, expected)
        # The table was dropped: the search evaluated every width again.
        assert second.evaluations == expected.evaluations
        # The edit shows in the search, so a stale table would too.
        unedited = WordLengthOptimizer(_two_stage_graph(),
                                       n_psd=128).optimize(1e-7)
        assert second.history != unedited.history


def _binary_search_probes(low, high, found):
    """The widths a binary search over ``[low, high]`` probes after
    ``high`` when it ends at ``found``."""
    while low < high:
        middle = (low + high) // 2
        yield middle
        if middle >= found:
            high = middle
        else:
            low = middle + 1

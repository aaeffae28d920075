"""Unit tests for the cost-vs-noise Pareto sweep."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.psd_method import evaluate_psd
from repro.lti.fir_design import design_fir_highpass, design_fir_lowpass
from repro.sfg.builder import SfgBuilder
from repro.systems.pareto import (
    ParetoFront,
    ParetoPoint,
    budget_range,
    sweep_noise_budgets,
)
from repro.systems.wordlength import WordLengthOptimizer


def _graph(bits=12):
    builder = SfgBuilder("pareto-system")
    x = builder.input("x", fractional_bits=bits)
    lp = builder.fir("lp", design_fir_lowpass(15, 0.4), x,
                     fractional_bits=bits)
    hp = builder.fir("hp", design_fir_highpass(15, 0.5), lp,
                     fractional_bits=bits)
    builder.output("y", hp)
    return builder.build()


class TestBudgetRange:
    def test_geometric_spacing(self):
        budgets = budget_range(1e-4, 1e-8, 5)
        np.testing.assert_allclose(budgets,
                                   [1e-4, 1e-5, 1e-6, 1e-7, 1e-8], rtol=1e-9)

    def test_single_point(self):
        np.testing.assert_allclose(budget_range(1e-5, 1e-9, 1), [1e-5])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            budget_range(0.0, 1e-8, 3)
        with pytest.raises(ValueError):
            budget_range(1e-4, 0.0, 3)
        with pytest.raises(ValueError):
            budget_range(1e-4, 1e-8, -1)

    def test_zero_count_is_an_empty_range(self):
        # Regression: a zero-point request used to raise; it must produce
        # a well-formed empty range (and an empty front downstream).
        budgets = budget_range(1e-4, 1e-8, 0)
        assert budgets.shape == (0,)

    def test_inverted_endpoints_are_reordered(self):
        # Regression: swapped endpoints must still yield a loosest-first
        # descending range, not an ascending one.
        np.testing.assert_allclose(budget_range(1e-8, 1e-4, 5),
                                   budget_range(1e-4, 1e-8, 5), rtol=1e-12)
        np.testing.assert_allclose(budget_range(1e-9, 1e-5, 1), [1e-5])

    def test_equal_endpoints_collapse(self):
        np.testing.assert_allclose(budget_range(1e-6, 1e-6, 3),
                                   [1e-6, 1e-6, 1e-6])


class TestSweep:
    def test_points_meet_their_budgets(self):
        graph = _graph()
        front = sweep_noise_budgets(graph, budget_range(1e-5, 1e-8, 4),
                                    n_psd=128)
        assert len(front.points) == 4
        for point in front.points:
            assert point.noise_power <= point.budget
            assert point.total_bits == sum(point.assignment.values())

    def test_tighter_budgets_cost_more_bits(self):
        front = sweep_noise_budgets(_graph(), budget_range(1e-5, 1e-9, 5),
                                    n_psd=128)
        costs = [point.total_bits for point in front.points]
        assert costs == sorted(costs)

    def test_points_match_standalone_evaluation(self):
        graph = _graph()
        front = sweep_noise_budgets(graph, [1e-6, 1e-8], n_psd=128)
        for point in front.points:
            from repro.sfg.plan import compile_plan
            plan = compile_plan(graph)
            plan.requantize(point.assignment)
            assert evaluate_psd(plan, 128).total_power == point.noise_power

    def test_unreachable_budgets_truncate_the_sweep(self):
        front = sweep_noise_budgets(_graph(), [1e-5, 1e-30], n_psd=64,
                                    max_bits=16)
        assert len(front.points) == 1
        assert front.points[0].budget == 1e-5

    def test_only_an_unreachable_budget_ends_the_sweep(self, monkeypatch):
        # Any other error of the search propagates: it must not read as
        # "no budget is reachable".
        def broken(self, budget):
            raise ValueError("broken evaluator")

        monkeypatch.setattr(WordLengthOptimizer, "optimize", broken)
        with pytest.raises(ValueError, match="broken evaluator"):
            sweep_noise_budgets(_graph(), [1e-5], n_psd=64)

    def test_batched_and_sequential_fronts_identical(self,
                                                     sequential_rounds):
        budgets = budget_range(1e-5, 1e-8, 3)
        batched = sweep_noise_budgets(_graph(), budgets, n_psd=128)
        sequential_rounds()
        sequential = sweep_noise_budgets(_graph(), budgets, n_psd=128)
        for a, b in zip(batched.points, sequential.points):
            assert a.assignment == b.assignment
            assert a.noise_power == b.noise_power
            assert a.evaluations == b.evaluations

    def test_validation_attaches_simulated_powers(self):
        front = sweep_noise_budgets(_graph(), [1e-5, 1e-7], n_psd=256,
                                    validate_samples=20_000, seed=3)
        unvalidated = sweep_noise_budgets(_graph(), [1e-5, 1e-7], n_psd=256)
        for point, plain in zip(front.points, unvalidated.points,
                                strict=True):
            # Validation adds the simulated power and keeps every field.
            assert replace(point, simulated_power=None) == plain
            assert point.simulated_power is not None
            assert point.simulated_power > 0
            # The estimate must sit well inside the sub-one-bit band.
            assert -3.0 < point.ed < 0.75

    def test_empty_sweep_yields_empty_front(self):
        # Regression: an empty budget list (e.g. budget_range(..., 0))
        # used to raise; it must yield a well-formed empty front whose
        # accessors all behave.
        front = sweep_noise_budgets(_graph(), budget_range(1e-5, 1e-8, 0))
        assert front.points == []
        assert front.pareto_points() == []
        assert front.total_evaluations == 0
        assert "0 budgets" in front.describe()

    def test_single_point_sweep_is_well_formed(self):
        front = sweep_noise_budgets(_graph(), budget_range(1e-6, 1e-6, 1),
                                    n_psd=64)
        assert len(front.points) == 1
        assert front.pareto_points() == front.points
        assert front.points[0].noise_power <= 1e-6

    def test_duplicate_budgets_collapse(self):
        front = sweep_noise_budgets(_graph(), [1e-6, 1e-6, 1e-6], n_psd=64)
        assert len(front.points) == 1

    def test_negative_budgets_rejected(self):
        with pytest.raises(ValueError):
            sweep_noise_budgets(_graph(), [1e-6, -1.0])

    @pytest.mark.parametrize("bad",
                             [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_budgets_rejected(self, bad):
        # Regression: NaN passed the `budget <= 0` check and poisoned the
        # whole sweep (sorting with NaN is undefined, and the optimizer
        # binary search never terminates meaningfully).
        with pytest.raises(ValueError, match="finite"):
            sweep_noise_budgets(_graph(), [1e-6, bad])
        with pytest.raises(ValueError, match="finite"):
            budget_range(bad, 1e-8, 3)
        with pytest.raises(ValueError, match="finite"):
            budget_range(1e-4, bad, 3)

    def test_edge_granularity_threaded_to_the_optimizer(self):
        node_front = sweep_noise_budgets(_graph(), [1e-6], n_psd=128)
        edge_front = sweep_noise_budgets(_graph(), [1e-6], n_psd=128,
                                         granularity="edge")
        assert all("->" not in key
                   for key in node_front.points[0].assignment)
        assert any("->" in key
                   for key in edge_front.points[0].assignment)
        assert edge_front.points[0].noise_power <= 1e-6


class TestSweepReuse:
    """One optimizer serves the sweep: responses are computed once per
    design and width, uniform widths once per sweep, and every point is
    the one a fresh optimizer finds."""

    def test_points_equal_fresh_optimizers(self, monkeypatch):
        from repro.lti.transfer_function import TransferFunction
        from repro.sfg.plan import compile_plan
        from repro.systems.families import build_scalability_bank

        responses = []
        real_response = TransferFunction.frequency_response
        monkeypatch.setattr(
            TransferFunction, "frequency_response",
            lambda tf, *args: responses.append(tf)
            or real_response(tf, *args))
        widths = []
        real_power = WordLengthOptimizer._noise_power

        def counting_power(optimizer, assignment):
            widths.append(set(assignment.values()).pop())
            return real_power(optimizer, assignment)

        monkeypatch.setattr(WordLengthOptimizer, "_noise_power",
                            counting_power)
        graph = build_scalability_bank(branches=16)
        budgets = budget_range(1e-5, 1e-8, 4)
        front = sweep_noise_budgets(graph, budgets, n_psd=64)
        assert len(front.points) == 4
        # One response per content key: the 16 branches share 7 designs.
        cache = [key for key in compile_plan(graph)._content_cache
                 if key[0] == "magnitude"]
        assert len(responses) == len(cache)
        assert len({key[2] for key in cache}) == 7
        # No uniform width is evaluated twice.
        assert len(widths) == len(set(widths))
        monkeypatch.setattr(WordLengthOptimizer, "_noise_power", real_power)
        for index, point in enumerate(front.points):
            expected = WordLengthOptimizer(build_scalability_bank(branches=16),
                                           n_psd=64).optimize(point.budget)
            assert point.assignment == expected.assignment
            assert point.total_bits == expected.total_bits
            assert point.noise_power.hex() == expected.noise_power.hex()
            if index == 0:
                assert point.evaluations == expected.evaluations
            else:
                assert point.evaluations < expected.evaluations


    def test_default_sweep_on_the_bank_reuses_rows_across_rounds(self):
        # `repro sweep --budget-range 1e-5 1e-8 6` on the 64-branch bank
        # at the default N_PSD: of the 49 357 rows its 77 greedy rounds
        # need inside the candidates' cones, 31 382 are kept rows of the
        # previous round, for the same candidate at the same bits, whose
        # upstream no accepted move touched.
        from repro.analysis._engine import plan_memo
        from repro.sfg.plan import compile_plan
        from repro.systems.families import build_scalability_bank

        graph = build_scalability_bank(branches=64)
        front = sweep_noise_budgets(graph, budget_range(1e-5, 1e-8, 6),
                                    n_psd=1024)
        assert [point.total_bits for point in front.points] == \
            [639, 703, 768, 833, 898, 963]
        counters = plan_memo(compile_plan(graph)).counters()
        assert counters["rows_computed"] == 17975
        assert counters["rows_reused"] == 31382
        assert counters["rows_copied"] == 77 * 65 * 129 - 49357


class TestParetoFront:
    def _point(self, bits, power, budget=1e-6):
        return ParetoPoint(budget=budget, total_bits=bits, noise_power=power,
                           assignment={}, evaluations=1)

    def test_dominated_points_filtered(self):
        front = ParetoFront(system="s", method="psd", points=[
            self._point(10, 1e-6),
            self._point(12, 1e-6),   # more bits, same noise: dominated
            self._point(10, 2e-6),   # same bits, more noise: dominated
            self._point(8, 5e-6),
        ])
        optimal = front.pareto_points()
        assert [p.total_bits for p in optimal] == [8, 10]

    def test_describe_renders_every_point(self):
        front = ParetoFront(system="s", method="psd", points=[
            self._point(10, 1e-6), self._point(14, 1e-8)])
        text = front.describe()
        assert "cost-vs-noise sweep" in text
        assert text.count("yes") == 2

    def test_ed_requires_validation(self):
        assert self._point(10, 1e-6).ed is None

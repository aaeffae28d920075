"""Plan-path vs legacy-path equivalence.

The compiled-plan refactor must be a pure execution-architecture change:
for every evaluation engine, running through a :class:`CompiledPlan` (with
its memoized frequency responses and index-based schedule) must produce
*bitwise identical* results to the straightforward per-call traversal the
library used before (validate, re-derive the topological order, resolve
predecessors by name, call every node's propagation rule directly).

The legacy traversals live in :mod:`repro.verify.legacy` (shared with the
campaign scenario-family tests and the differential fuzz); here they are
exercised on the paper's Table-I filter-bank systems and on a DWT-style
multirate filter-bank graph.
"""

import numpy as np
import pytest

from repro.analysis.agnostic_method import evaluate_agnostic
from repro.analysis.flat_method import evaluate_flat
from repro.analysis.psd_method import evaluate_psd, evaluate_psd_tracked
from repro.analysis.simulation_method import SimulationEvaluator
from repro.sfg.plan import compile_plan
from repro.systems.families import build_dwt97_bank
from repro.systems.filter_bank import (
    build_filter_graph,
    generate_fir_bank,
    generate_iir_bank,
)
from repro.verify.legacy import (
    legacy_agnostic as _legacy_agnostic,
    legacy_flat as _legacy_flat,
    legacy_psd as _legacy_psd,
    legacy_run as _legacy_run,
    legacy_tracked as _legacy_tracked,
)


# ----------------------------------------------------------------------
# Systems under test
# ----------------------------------------------------------------------
def _table1_graphs():
    entries = generate_fir_bank(3, seed=5) + generate_iir_bank(3, seed=5)
    return [build_filter_graph(entry, fractional_bits=12)
            for entry in entries]


def _dwt_graph(bits=11):
    """One-level 9/7 analysis + synthesis bank as a multirate SFG —
    the exact graph the campaign registry ships (shared builder)."""
    return build_dwt97_bank(fractional_bits=bits)


def _assert_psd_identical(plan_psd, legacy_psd):
    np.testing.assert_array_equal(plan_psd.ac, legacy_psd.ac)
    assert plan_psd.mean == legacy_psd.mean


class TestTable1FilterBank:
    @pytest.mark.parametrize("index", range(6))
    def test_psd_method_bitwise_identical(self, index):
        graph = _table1_graphs()[index]
        _assert_psd_identical(evaluate_psd(graph, 256),
                              _legacy_psd(graph, 256))

    @pytest.mark.parametrize("index", range(6))
    def test_tracked_method_bitwise_identical(self, index):
        graph = _table1_graphs()[index]
        _assert_psd_identical(evaluate_psd_tracked(graph, 256),
                              _legacy_tracked(graph, 256))

    @pytest.mark.parametrize("index", range(6))
    def test_agnostic_method_bitwise_identical(self, index):
        graph = _table1_graphs()[index]
        stats = evaluate_agnostic(graph)
        legacy = _legacy_agnostic(graph)
        assert stats.mean == legacy.mean
        assert stats.variance == legacy.variance

    @pytest.mark.parametrize("index", range(6))
    def test_flat_method_bitwise_identical(self, index):
        # The flat method composes the same per-block transfer functions
        # in the same order through the plan schedule, so it too must be
        # bitwise reproducible.
        graph = _table1_graphs()[index]
        via_plan = evaluate_flat(graph)
        legacy = _legacy_flat(graph)
        assert via_plan.mean == legacy.mean
        assert via_plan.variance == legacy.variance

    @pytest.mark.parametrize("index", [0, 3])
    def test_simulator_bitwise_identical(self, index, rng):
        graph = _table1_graphs()[index]
        x = rng.uniform(-0.9, 0.9, 2048)
        plan = compile_plan(graph)
        for mode in ("double", "fixed"):
            np.testing.assert_array_equal(
                plan.run({"x": x}, mode=mode).output("y"),
                _legacy_run(graph, {"x": x}, mode))


class TestDwtBank:
    def test_psd_method_bitwise_identical(self):
        graph = _dwt_graph()
        _assert_psd_identical(evaluate_psd(graph, 256),
                              _legacy_psd(graph, 256))

    def test_agnostic_method_bitwise_identical(self):
        graph = _dwt_graph()
        stats = evaluate_agnostic(graph)
        legacy = _legacy_agnostic(graph)
        assert stats.mean == legacy.mean
        assert stats.variance == legacy.variance

    def test_simulator_bitwise_identical(self, rng):
        graph = _dwt_graph()
        x = rng.uniform(-0.9, 0.9, 1024)
        plan = compile_plan(graph)
        for mode in ("double", "fixed"):
            np.testing.assert_array_equal(
                plan.run({"x": x}, mode=mode).output("y"),
                _legacy_run(graph, {"x": x}, mode))

    def test_estimate_close_to_simulation(self, rng):
        """End-to-end sanity: the plan path still estimates accurately."""
        graph = _dwt_graph()
        x = rng.uniform(-0.9, 0.9, 60_000)
        error = SimulationEvaluator(graph).error_signal({"x": x})
        measured = float(np.mean(error[64:] ** 2))
        estimated = evaluate_psd(graph, 512).total_power
        assert estimated == pytest.approx(measured, rel=0.3)

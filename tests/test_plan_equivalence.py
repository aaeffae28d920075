"""Plan-path vs legacy-path equivalence.

The compiled-plan refactor must be a pure execution-architecture change:
for every evaluation engine, running through a :class:`CompiledPlan` (with
its memoized frequency responses and index-based schedule) must produce
*bitwise identical* results to the straightforward per-call traversal the
library used before (validate, re-derive the topological order, resolve
predecessors by name, call every node's propagation rule directly).

The legacy traversals live in :mod:`repro.verify.legacy` (shared with the
campaign scenario-family tests and the differential fuzz); here they are
exercised on the paper's Table-I filter-bank systems, on a DWT-style
multirate filter-bank graph, and on a single-rate graph that takes a
gain, a delay, a generic LTI block, a signed adder fed by re-convergent
fan-out and a fanout tap through every analytical walk and both
simulation modes.
"""

import numpy as np
import pytest

from repro.analysis.agnostic_method import evaluate_agnostic
from repro.analysis.flat_method import evaluate_flat
from repro.analysis.psd_method import evaluate_psd, evaluate_psd_tracked
from repro.analysis.simulation_method import SimulationEvaluator
from repro.fixedpoint.quantizer import RoundingMode
from repro.lti.transfer_function import TransferFunction
from repro.sfg.builder import SfgBuilder
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


def _single_rate_mix_graph():
    """x -> gain -> {delay, LTI} -> signed adder -> y, with the gain's
    edge toward the LTI block tapped to a coarser grid."""
    truncate = RoundingMode.TRUNCATE
    builder = SfgBuilder("single-rate-mix")
    x = builder.input("x", fractional_bits=12, rounding=truncate)
    g = builder.gain("g", 0.75, x, fractional_bits=10, rounding=truncate)
    d = builder.delay("d", g, samples=2)
    lti = builder.lti("l", TransferFunction([0.5, 0.25], [1.0, -0.3]), g,
                      fractional_bits=11)
    s = builder.add("s", [d, lti], signs=[1.0, -1.0], fractional_bits=9,
                    rounding=truncate)
    builder.output("y", s)
    graph = builder.build()
    gain = graph.node("g")
    gain.quantization = gain.quantization.with_edge_fractional_bits("l", 7)
    return graph


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


class TestSingleRateMix:
    """Every analytical walk and both simulation modes against the
    oracle on the LTI node types, the adder signs, re-convergent fan-out
    and a fanout tap."""

    def test_the_tap_injects_noise(self):
        plan = compile_plan(_single_rate_mix_graph())
        (tap,) = plan.steps[plan.index_of["l"]].edge_taps
        assert tap.key == "g->l"
        assert tap.noise.mean != 0.0

    def test_psd_method_bitwise_identical(self):
        graph = _single_rate_mix_graph()
        _assert_psd_identical(evaluate_psd(graph, 256),
                              _legacy_psd(graph, 256))

    def test_agnostic_method_bitwise_identical(self):
        graph = _single_rate_mix_graph()
        stats = evaluate_agnostic(graph)
        legacy = _legacy_agnostic(graph)
        assert stats.mean == legacy.mean
        assert stats.variance == legacy.variance

    def test_tracked_method_bitwise_identical(self):
        graph = _single_rate_mix_graph()
        _assert_psd_identical(evaluate_psd_tracked(graph, 256),
                              _legacy_tracked(graph, 256))

    def test_flat_method_bitwise_identical(self):
        graph = _single_rate_mix_graph()
        via_plan = evaluate_flat(graph)
        legacy = _legacy_flat(graph)
        assert via_plan.mean == legacy.mean
        assert via_plan.variance == legacy.variance

    def test_simulator_bitwise_identical(self, rng):
        # The oracle re-quantizes the tapped edge g->l to 7 bits as the
        # plan walk does; the untapped run differs by 2^-7.  Raw bytes,
        # so a flipped signed zero fails too.
        graph = _single_rate_mix_graph()
        stimulus = {"x": rng.uniform(-0.9, 0.9, 512)}
        plan = compile_plan(graph)
        for mode in ("double", "fixed"):
            result = plan.run(stimulus, mode=mode).output("y")
            expected = _legacy_run(graph, stimulus, mode)
            assert result.shape == expected.shape
            assert result.tobytes() == expected.tobytes()


def test_oracle_imports_nothing_from_the_plan_or_the_engine():
    """The oracle restates what it checks: none of its imports reaches
    the plan layer or the analytical engine."""
    import ast
    from pathlib import Path

    import repro.verify.legacy as legacy

    tree = ast.parse(Path(legacy.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert "repro.simkernel.reference" in modules
    assert not [module for module in modules
                if module.startswith(("repro.analysis", "repro.sfg.plan"))]

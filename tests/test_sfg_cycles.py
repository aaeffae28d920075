"""Unit tests for cycle detection and feedback-loop collapsing."""

import numpy as np
import pytest

from repro.sfg.builder import SfgBuilder
from repro.sfg.cycles import break_feedback_loops, find_cycles
from repro.sfg.plan import compile_plan
from repro.sfg.graph import SignalFlowGraph
from repro.sfg.nodes import (
    AddNode,
    DelayNode,
    GainNode,
    InputNode,
    OutputNode,
)


def _feedback_graph(gain: float = 0.5) -> SignalFlowGraph:
    """x --> (+) --> y, with the adder output fed back through gain*z^-1."""
    graph = SignalFlowGraph("feedback")
    graph.add_node(InputNode("x"))
    graph.add_node(AddNode("sum", num_inputs=2))
    graph.add_node(DelayNode("z", 1))
    graph.add_node(GainNode("g", gain))
    graph.add_node(OutputNode("y"))
    graph.connect("x", "sum", port=0)
    graph.connect("sum", "z")
    graph.connect("z", "g")
    graph.connect("g", "sum", port=1)
    graph.connect("sum", "y")
    return graph


class TestFindCycles:
    def test_acyclic_graph_has_no_cycles(self):
        builder = SfgBuilder()
        x = builder.input("x")
        h = builder.fir("h", [1.0, 0.5], x)
        builder.output("y", h)
        assert find_cycles(builder.build()) == []

    def test_feedback_loop_found(self):
        cycles = find_cycles(_feedback_graph())
        assert len(cycles) == 1
        assert set(cycles[0]) == {"sum", "z", "g"}

    def test_two_independent_loops_found(self):
        graph = _feedback_graph()
        # Add a second loop after the first one.
        graph.add_node(AddNode("sum2", num_inputs=2))
        graph.add_node(DelayNode("z2", 1))
        graph.add_node(GainNode("g2", 0.25))
        # Rewire: sum -> sum2 -> y (replace direct sum -> y edge).
        for edge in graph.successors("sum"):
            if edge.target == "y":
                graph.remove_edge(edge)
        graph.connect("sum", "sum2", port=0)
        graph.connect("sum2", "z2")
        graph.connect("z2", "g2")
        graph.connect("g2", "sum2", port=1)
        graph.connect("sum2", "y")
        cycles = find_cycles(graph)
        assert len(cycles) == 2


class TestBreakFeedbackLoops:
    def test_collapsed_graph_is_acyclic(self):
        graph = break_feedback_loops(_feedback_graph())
        assert graph.is_acyclic()
        graph.validate()

    def test_collapsed_graph_matches_recursive_filter(self):
        """The loop y[n] = x[n] + 0.5 y[n-1] is the IIR 1 / (1 - 0.5 z^-1)."""
        graph = break_feedback_loops(_feedback_graph(0.5))
        plan = compile_plan(graph)
        x = np.zeros(16)
        x[0] = 1.0
        response = plan.run({"x": x}).output("y")
        np.testing.assert_allclose(response, 0.5 ** np.arange(16), atol=1e-12)

    def test_negative_feedback_sign(self):
        graph = SignalFlowGraph("negfb")
        graph.add_node(InputNode("x"))
        graph.add_node(AddNode("sum", num_inputs=2, signs=[1.0, -1.0]))
        graph.add_node(DelayNode("z", 1))
        graph.add_node(GainNode("g", 0.5))
        graph.add_node(OutputNode("y"))
        graph.connect("x", "sum", port=0)
        graph.connect("sum", "z")
        graph.connect("z", "g")
        graph.connect("g", "sum", port=1)
        graph.connect("sum", "y")
        collapsed = break_feedback_loops(graph)
        response = compile_plan(collapsed).run(
            {"x": np.eye(1, 16, 0).ravel()}).output("y")
        np.testing.assert_allclose(response, (-0.5) ** np.arange(16),
                                   atol=1e-12)

    def test_acyclic_graph_unchanged(self):
        builder = SfgBuilder()
        x = builder.input("x")
        h = builder.fir("h", [1.0, 0.5], x)
        builder.output("y", h)
        graph = builder.build()
        names_before = set(graph.nodes)
        break_feedback_loops(graph)
        assert set(graph.nodes) == names_before

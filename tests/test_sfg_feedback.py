"""Feedback in a signal-flow graph.

Graphs are acyclic: :meth:`~repro.sfg.graph.SignalFlowGraph.topological_order`
rejects a cycle, and a feedback loop is written as an
:class:`~repro.sfg.nodes.IirNode` whose recursion holds the loop.  These
tests pin both halves: a loop of adder, delay and gain is rejected with a
pointer to the IIR node, and the IIR node is that loop, sample for sample
in simulation and in its noise gain.
"""

import numpy as np
import pytest

from repro.analysis.agnostic_method import evaluate_agnostic
from repro.analysis.psd_method import evaluate_psd
from repro.fixedpoint.noise_model import quantization_noise_stats
from repro.sfg.builder import SfgBuilder
from repro.sfg.graph import SignalFlowGraph
from repro.sfg.nodes import AddNode, DelayNode, GainNode, InputNode, OutputNode
from repro.sfg.plan import compile_plan


def _add_loop(graph: SignalFlowGraph, source: str, suffix: str = "",
              gain: float = 0.5) -> str:
    """``source --> (+) -->``, the adder output fed back through
    ``gain * z^-1``; returns the adder's name."""
    adder = f"sum{suffix}"
    graph.add_node(AddNode(adder, num_inputs=2))
    graph.add_node(DelayNode(f"z{suffix}", 1))
    graph.add_node(GainNode(f"g{suffix}", gain))
    graph.connect(source, adder, port=0)
    graph.connect(adder, f"z{suffix}")
    graph.connect(f"z{suffix}", f"g{suffix}")
    graph.connect(f"g{suffix}", adder, port=1)
    return adder


def _feedback_graph(loops: int = 1) -> SignalFlowGraph:
    graph = SignalFlowGraph("feedback")
    graph.add_node(InputNode("x"))
    previous = "x"
    for index in range(loops):
        previous = _add_loop(graph, previous, suffix=str(index or ""))
    graph.add_node(OutputNode("y"))
    graph.connect(previous, "y")
    return graph


def _loop_graph(feedback: float, input_bits=None) -> SignalFlowGraph:
    """The loop ``y[n] = x[n] + feedback * y[n-1]`` as one IIR node."""
    builder = SfgBuilder("iir-loop")
    x = builder.input("x", fractional_bits=input_bits)
    loop = builder.iir("loop", [1.0], [1.0, -feedback], x)
    builder.output("y", loop)
    return builder.build()


class TestCycleRejection:
    def test_acyclic_graph_orders_every_node(self):
        builder = SfgBuilder()
        x = builder.input("x")
        h = builder.fir("h", [1.0, 0.5], x)
        g = builder.gain("g", 2.0, x)
        s = builder.add("s", [h, g])
        builder.output("y", s)
        graph = builder.build()
        order = graph.topological_order()
        assert sorted(order) == sorted(graph.nodes)
        position = {name: index for index, name in enumerate(order)}
        assert all(position[edge.source] < position[edge.target]
                   for edge in graph.edges)

    def test_feedback_loop_rejected(self):
        graph = _feedback_graph()
        graph.validate()  # every port is driven; only the order fails
        with pytest.raises(ValueError, match="IirNode") as error:
            graph.topological_order()
        message = str(error.value)
        assert all(repr(name) in message for name in ("sum", "z", "g"))
        assert repr("x") not in message

    def test_two_independent_loops_rejected(self):
        graph = _feedback_graph(loops=2)
        with pytest.raises(ValueError, match="cycle") as error:
            graph.topological_order()
        assert all(repr(name) in str(error.value)
                   for name in ("sum", "g", "sum1", "g1"))

    def test_loop_does_not_compile(self):
        with pytest.raises(ValueError, match="IirNode"):
            compile_plan(_feedback_graph())


class TestFeedbackAsIirNode:
    @pytest.mark.parametrize("feedback", [0.5, -0.5],
                             ids=["positive", "negative"])
    def test_loop_matches_recursive_filter(self, feedback, rng):
        x = rng.uniform(-1.0, 1.0, 64)
        expected = np.empty_like(x)
        state = 0.0
        for n, sample in enumerate(x):
            state = sample + feedback * state
            expected[n] = state
        response = compile_plan(_loop_graph(feedback)).run(
            {"x": x}).output("y")
        np.testing.assert_allclose(response, expected, atol=1e-12)

    @pytest.mark.parametrize("feedback", [0.5, -0.5, 0.9])
    def test_noise_gain_of_a_one_pole_loop(self, feedback):
        """White noise through ``1 / (1 - a z^-1)`` gains ``1 / (1 - a^2)``,
        in the PSD walk and in the moment walk alike."""
        graph = _loop_graph(feedback, input_bits=12)
        expected = quantization_noise_stats(12).variance / (1.0 - feedback ** 2)
        assert evaluate_psd(graph, 1024).total_power == pytest.approx(
            expected, rel=1e-9)
        assert evaluate_agnostic(graph).power == pytest.approx(expected,
                                                               rel=1e-9)

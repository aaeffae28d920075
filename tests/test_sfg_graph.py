"""Unit tests for the signal-flow-graph container."""

import pytest

from repro.sfg.graph import Edge, SignalFlowGraph
from repro.sfg.nodes import AddNode, FirNode, InputNode, OutputNode


def _simple_graph() -> SignalFlowGraph:
    graph = SignalFlowGraph("simple")
    graph.add_node(InputNode("x"))
    graph.add_node(FirNode("h", [0.5, 0.5]))
    graph.add_node(OutputNode("y"))
    graph.connect("x", "h")
    graph.connect("h", "y")
    return graph


class TestConstruction:
    def test_duplicate_names_rejected(self):
        graph = SignalFlowGraph()
        graph.add_node(InputNode("x"))
        with pytest.raises(ValueError):
            graph.add_node(InputNode("x"))

    def test_connect_unknown_nodes_rejected(self):
        graph = SignalFlowGraph()
        graph.add_node(InputNode("x"))
        with pytest.raises(KeyError):
            graph.connect("x", "missing")
        with pytest.raises(KeyError):
            graph.connect("missing", "x")

    def test_connect_invalid_port_rejected(self):
        graph = SignalFlowGraph()
        graph.add_node(InputNode("x"))
        graph.add_node(FirNode("h", [1.0]))
        with pytest.raises(ValueError):
            graph.connect("x", "h", port=1)

    def test_double_driving_a_port_rejected(self):
        graph = SignalFlowGraph()
        graph.add_node(InputNode("a"))
        graph.add_node(InputNode("b"))
        graph.add_node(FirNode("h", [1.0]))
        graph.connect("a", "h")
        with pytest.raises(ValueError):
            graph.connect("b", "h")

    def test_negative_port_rejected(self):
        with pytest.raises(ValueError):
            Edge("a", "b", port=-1)

    def test_contains_and_len(self):
        graph = _simple_graph()
        assert "h" in graph
        assert "missing" not in graph
        assert len(graph) == 3

    def test_remove_node_drops_edges(self):
        graph = _simple_graph()
        graph.remove_node("h")
        assert "h" not in graph
        assert all(e.source != "h" and e.target != "h" for e in graph.edges)

    def test_remove_unknown_node_rejected(self):
        with pytest.raises(KeyError):
            _simple_graph().remove_node("zzz")


class TestQueries:
    def test_input_output_names(self):
        graph = _simple_graph()
        assert graph.input_names() == ["x"]
        assert graph.output_names() == ["y"]

    def test_predecessors_sorted_by_port(self):
        graph = SignalFlowGraph()
        graph.add_node(InputNode("a"))
        graph.add_node(InputNode("b"))
        graph.add_node(AddNode("sum", num_inputs=2))
        graph.add_node(OutputNode("y"))
        graph.connect("b", "sum", port=1)
        graph.connect("a", "sum", port=0)
        graph.connect("sum", "y")
        assert [e.source for e in graph.predecessors("sum")] == ["a", "b"]

    def test_successors(self):
        graph = SignalFlowGraph()
        graph.add_node(InputNode("x"))
        graph.add_node(FirNode("h1", [1.0]))
        graph.add_node(FirNode("h2", [1.0]))
        graph.add_node(OutputNode("y1"))
        graph.add_node(OutputNode("y2"))
        graph.connect("x", "h1")
        graph.connect("x", "h2")
        graph.connect("h1", "y1")
        graph.connect("h2", "y2")
        assert {e.target for e in graph.successors("x")} == {"h1", "h2"}


class TestValidationAndOrdering:
    def test_valid_graph_passes(self):
        _simple_graph().validate()

    def test_missing_input_detected(self):
        graph = SignalFlowGraph()
        graph.add_node(FirNode("h", [1.0]))
        graph.add_node(OutputNode("y"))
        graph.connect("h", "y")
        with pytest.raises(ValueError):
            graph.validate()

    def test_undriven_port_detected(self):
        graph = SignalFlowGraph()
        graph.add_node(InputNode("x"))
        graph.add_node(AddNode("sum", num_inputs=2))
        graph.add_node(OutputNode("y"))
        graph.connect("x", "sum", port=0)
        graph.connect("sum", "y")
        with pytest.raises(ValueError):
            graph.validate()

    def test_output_driving_nodes_detected(self):
        graph = SignalFlowGraph()
        graph.add_node(InputNode("x"))
        graph.add_node(OutputNode("y"))
        graph.add_node(FirNode("h", [1.0]))
        graph.connect("x", "y")
        graph.connect("y", "h")
        with pytest.raises(ValueError):
            graph.validate()

    def test_topological_order_respects_edges(self):
        graph = _simple_graph()
        order = graph.topological_order()
        assert order.index("x") < order.index("h") < order.index("y")

    def test_topological_ties_go_to_the_earliest_inserted(self):
        # Insertion order differs from name order, and q, inserted
        # second, becomes ready only after b: of the ready nodes the
        # earliest inserted comes first, not the first named or the first
        # found ready.
        graph = SignalFlowGraph("ties")
        graph.add_node(InputNode("x"))
        graph.add_node(FirNode("q", [0.5]))
        graph.add_node(FirNode("p", [0.5]))
        graph.add_node(FirNode("b", [0.5]))
        graph.add_node(InputNode("w"))
        graph.add_node(AddNode("s", num_inputs=3))
        graph.add_node(OutputNode("y"))
        graph.connect("x", "p")
        graph.connect("x", "b")
        graph.connect("p", "q")
        graph.connect("q", "s", port=0)
        graph.connect("b", "s", port=1)
        graph.connect("w", "s", port=2)
        graph.connect("s", "y")
        assert graph.topological_order() == ["x", "p", "q", "b", "w", "s",
                                             "y"]

    def test_cycle_detected_by_topological_sort(self):
        graph = SignalFlowGraph()
        graph.add_node(InputNode("x"))
        graph.add_node(AddNode("sum", num_inputs=2))
        graph.add_node(FirNode("h", [1.0]))
        graph.add_node(OutputNode("y"))
        graph.connect("x", "sum", port=0)
        graph.connect("sum", "h")
        graph.connect("h", "sum", port=1)
        graph.connect("sum", "y")
        with pytest.raises(ValueError, match="IirNode"):
            graph.topological_order()

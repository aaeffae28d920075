"""The signal-flow-graph container.

A :class:`SignalFlowGraph` holds named nodes and directed edges between
them.  Every node produces exactly one output signal, which may fan out to
any number of consumers; multi-input nodes (adders) declare the number of
input ports they expose and each port must be driven by exactly one edge.

The graph offers the structural queries the evaluation engines need:
validation, topological ordering and predecessor lookup.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.sfg.nodes import (
    DownsampleNode,
    InputNode,
    Node,
    OutputNode,
    UpsampleNode,
)


@dataclass(frozen=True)
class Edge:
    """A directed connection from a node's output to a node's input port."""

    source: str
    target: str
    port: int = 0

    def __post_init__(self) -> None:
        if self.port < 0:
            raise ValueError(f"port must be non-negative, got {self.port}")


class SignalFlowGraph:
    """A directed graph of :class:`~repro.sfg.nodes.Node` objects."""

    def __init__(self, name: str = "sfg"):
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._edges: list[Edge] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Add ``node`` to the graph; names must be unique."""
        if node.name in self._nodes:
            raise ValueError(f"a node named {node.name!r} already exists")
        self._nodes[node.name] = node
        return node

    def connect(self, source: str, target: str, port: int = 0) -> Edge:
        """Connect ``source``'s output to input ``port`` of ``target``."""
        if source not in self._nodes:
            raise KeyError(f"unknown source node {source!r}")
        if target not in self._nodes:
            raise KeyError(f"unknown target node {target!r}")
        target_node = self._nodes[target]
        if port >= target_node.num_inputs:
            raise ValueError(
                f"node {target!r} has {target_node.num_inputs} input ports; "
                f"port {port} does not exist")
        for edge in self._edges:
            if edge.target == target and edge.port == port:
                raise ValueError(
                    f"input port {port} of node {target!r} is already driven "
                    f"by {edge.source!r}")
        edge = Edge(source=source, target=target, port=port)
        self._edges.append(edge)
        return edge

    def remove_node(self, name: str) -> None:
        """Remove a node and every edge touching it."""
        if name not in self._nodes:
            raise KeyError(f"unknown node {name!r}")
        del self._nodes[name]
        self._edges = [edge for edge in self._edges
                       if edge.source != name and edge.target != name]

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> dict[str, Node]:
        """Mapping from node name to node (read-only view)."""
        return dict(self._nodes)

    @property
    def edges(self) -> list[Edge]:
        """List of edges (copy)."""
        return list(self._edges)

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        return self._nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def input_names(self) -> list[str]:
        """Names of every :class:`InputNode`, in insertion order."""
        return [name for name, node in self._nodes.items()
                if isinstance(node, InputNode)]

    def output_names(self) -> list[str]:
        """Names of every :class:`OutputNode`, in insertion order."""
        return [name for name, node in self._nodes.items()
                if isinstance(node, OutputNode)]

    def predecessors(self, name: str) -> list[Edge]:
        """Edges driving the input ports of ``name``, sorted by port."""
        incoming = [edge for edge in self._edges if edge.target == name]
        return sorted(incoming, key=lambda edge: edge.port)

    def successors(self, name: str) -> list[Edge]:
        """Edges leaving ``name``'s output."""
        return [edge for edge in self._edges if edge.source == name]

    # ------------------------------------------------------------------
    # Validation / structure
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check that the graph is structurally sound.

        * every input port of every node is driven by exactly one edge;
        * output nodes do not feed other nodes;
        * there is at least one input and one output.
        """
        if not self.input_names():
            raise ValueError(f"graph {self.name!r} has no input node")
        if not self.output_names():
            raise ValueError(f"graph {self.name!r} has no output node")
        for name, node in self._nodes.items():
            driven = {edge.port for edge in self.predecessors(name)}
            expected = set(range(node.num_inputs))
            missing = expected - driven
            if missing:
                raise ValueError(
                    f"node {name!r} has undriven input ports {sorted(missing)}")
            if isinstance(node, OutputNode) and self.successors(name):
                raise ValueError(f"output node {name!r} must not drive other nodes")

    def topological_order(self) -> list[str]:
        """Node names in topological order.

        Raises
        ------
        ValueError
            If the graph contains a cycle.  Graphs are acyclic: a feedback
            loop is written as an :class:`~repro.sfg.nodes.IirNode`.
        """
        # Nodes are ints, their insertion positions: of the ready nodes
        # the earliest inserted comes first, for deterministic results.
        names = list(self._nodes)
        position = {name: index for index, name in enumerate(names)}
        in_degree = [0] * len(names)
        successors: list[list[int]] = [[] for _ in names]
        for edge in self._edges:
            in_degree[position[edge.target]] += 1
            successors[position[edge.source]].append(position[edge.target])
        ready = [index for index, degree in enumerate(in_degree)
                 if degree == 0]
        order: list[str] = []
        while ready:
            current = heapq.heappop(ready)
            order.append(names[current])
            for target in successors[current]:
                in_degree[target] -= 1
                if in_degree[target] == 0:
                    heapq.heappush(ready, target)
        if len(order) != len(self._nodes):
            unresolved = sorted(set(self._nodes) - set(order))
            raise ValueError(
                f"graph {self.name!r} contains at least one cycle involving "
                f"{unresolved}; write feedback as an IirNode")
        return order

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SignalFlowGraph({self.name!r}, nodes={len(self._nodes)}, "
                f"edges={len(self._edges)})")


def is_multirate(graph: SignalFlowGraph) -> bool:
    """Whether the graph contains decimators or expanders.

    Multirate graphs restrict the applicable evaluation engines: the flat
    and tracked methods are only defined at a single rate
    (:func:`reject_multirate`; the campaign layer skips those grid
    points, the verification harness skips those checks).
    """
    return any(isinstance(node, (DownsampleNode, UpsampleNode))
               for node in graph.nodes.values())


def reject_multirate(graph: SignalFlowGraph, method: str) -> None:
    """Raise ``NotImplementedError`` naming the graph's first decimator or
    expander: ``method`` is defined at a single rate only."""
    for name, node in graph.nodes.items():
        if isinstance(node, (DownsampleNode, UpsampleNode)):
            raise NotImplementedError(
                f"the {method} method supports single-rate graphs only; "
                f"found multirate node {name!r}")

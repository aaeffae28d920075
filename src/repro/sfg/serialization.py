"""JSON serialization of signal-flow graphs.

A fixed-point design flow needs to exchange the system description between
tools (front-end capture, accuracy evaluation, word-length optimization,
report generation).  This module defines a small JSON schema for the
node / wiring / word-length information of a :class:`SignalFlowGraph` and
implements loss-free save / load for every built-in node type.

Schema (version 1)::

    {
      "version": 1,
      "name": "my-system",
      "nodes": [
        {"name": "x",   "type": "input",  "fractional_bits": 12,
         "rounding": "round"},
        {"name": "h",   "type": "fir",    "taps": [...],
         "fractional_bits": 12},
        {"name": "y",   "type": "output"}
      ],
      "edges": [
        {"source": "x", "target": "h", "port": 0},
        {"source": "h", "target": "y", "port": 0}
      ]
    }

Every node type but ``output`` takes the word-length keys
``fractional_bits``, ``rounding``, ``coefficient_fractional_bits``,
``input_fractional_bits`` and ``edge_fractional_bits`` (a map from a
fanout target to its tap width); each width is an integer >= 0, and so
is a node's ``delay``, ``factor`` and ``phase`` and an edge's ``port``
(JSON ``2.7``, ``true`` or ``"3"`` is refused, not rounded).  A node
carries these, ``name``, ``type`` and its type's own parameters, an edge
``source``, ``target`` and ``port``.  The loader refuses any other key
with a ``ValueError`` naming the node or edge and the key, so a typo or
a key of another schema cannot load and be ignored.

The command-line front end (:mod:`repro.cli`) consumes these files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.fixedpoint.quantizer import RoundingMode
from repro.sfg.graph import SignalFlowGraph
from repro.sfg.nodes import (
    AddNode,
    DelayNode,
    DownsampleNode,
    FirNode,
    GainNode,
    IirNode,
    InputNode,
    LtiNode,
    Node,
    OutputNode,
    QuantizationSpec,
    UpsampleNode,
    _check_width,
)
from repro.lti.transfer_function import TransferFunction

SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def _spec_to_dict(spec: QuantizationSpec) -> dict:
    # A disabled spec keeps its fields too: a fanout tap on an
    # unquantized source inherits its rounding mode, and a batched
    # evaluation that enables the node reads them all.  A disabled spec
    # whose other fields are defaults serializes as ``{}``.
    data: dict = {}
    if spec.enabled:
        data["fractional_bits"] = spec.fractional_bits
        data["rounding"] = spec.rounding.value
    if spec.coefficient_fractional_bits is not None:
        data["coefficient_fractional_bits"] = spec.coefficient_fractional_bits
    if spec.input_fractional_bits is not None:
        data["input_fractional_bits"] = spec.input_fractional_bits
    if spec.edge_fractional_bits:
        data["edge_fractional_bits"] = {target: bits for target, bits
                                        in spec.edge_fractional_bits}
    if spec.edge_fractional_bits or spec.rounding is not RoundingMode.ROUND:
        data.setdefault("rounding", spec.rounding.value)
    return data


def _node_to_dict(node: Node) -> dict:
    data: dict = {"name": node.name}
    data.update(_spec_to_dict(node.quantization))
    if isinstance(node, InputNode):
        data["type"] = "input"
    elif isinstance(node, OutputNode):
        data["type"] = "output"
    elif isinstance(node, AddNode):
        data["type"] = "add"
        data["signs"] = list(node.signs)
    elif isinstance(node, GainNode):
        data["type"] = "gain"
        data["gain"] = node.gain
    elif isinstance(node, DelayNode):
        data["type"] = "delay"
        data["delay"] = node.delay
    elif isinstance(node, FirNode) and type(node) is FirNode:
        data["type"] = "fir"
        data["taps"] = [float(t) for t in node.taps]
    elif isinstance(node, (IirNode, LtiNode)):
        data["type"] = "iir" if isinstance(node, IirNode) else "lti"
        tf = node.transfer_function()
        data["b"] = [float(c) for c in tf.b]
        data["a"] = [float(c) for c in tf.a]
    elif isinstance(node, DownsampleNode):
        data["type"] = "downsample"
        data["factor"] = node.factor
        data["phase"] = node.phase
    elif isinstance(node, UpsampleNode):
        data["type"] = "upsample"
        data["factor"] = node.factor
    else:
        raise TypeError(
            f"node {node.name!r} of type {type(node).__name__} has no JSON "
            "serialization; serialize it as an equivalent 'fir'/'iir'/'lti' "
            "node instead")
    return data


def graph_to_dict(graph: SignalFlowGraph) -> dict:
    """Serialize a graph to a JSON-compatible dictionary."""
    return {
        "version": SCHEMA_VERSION,
        "name": graph.name,
        "nodes": [_node_to_dict(node) for node in graph.nodes.values()],
        "edges": [{"source": edge.source, "target": edge.target,
                   "port": edge.port} for edge in graph.edges],
    }


def save_graph(graph: SignalFlowGraph, path) -> None:
    """Write a graph to a JSON file."""
    Path(path).write_text(json.dumps(graph_to_dict(graph), indent=2) + "\n")


# ----------------------------------------------------------------------
# Canonical fingerprints
# ----------------------------------------------------------------------
def canonical_graph_dict(graph: SignalFlowGraph) -> dict:
    """Ordering-stable variant of :func:`graph_to_dict`.

    ``graph_to_dict`` preserves insertion order (useful for readable JSON
    files); for content addressing the representation must not depend on
    the order in which nodes and edges were added, so nodes are sorted by
    name and edges by ``(target, port, source)``.
    """
    data = graph_to_dict(graph)
    data["nodes"] = sorted(data["nodes"], key=lambda node: node["name"])
    data["edges"] = sorted(data["edges"],
                           key=lambda e: (e["target"], e["port"], e["source"]))
    return data


def canonical_digest(payload: dict) -> str:
    """SHA-256 of a JSON-compatible payload in canonical form.

    The single digest primitive shared by every content-addressing site
    (graph / assignment fingerprints, campaign job keys, scenario
    signatures): sorted keys, compact separators, ``allow_nan=False`` so
    a stray NaN fails loudly instead of hashing as invalid JSON.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint_of_canonical_dict(canonical: dict) -> str:
    """Graph fingerprint from an already-canonical serialized dict.

    Callers that hold the :func:`canonical_graph_dict` output (e.g. the
    campaign expansion, which ships it to workers anyway) can hash it
    directly instead of re-serializing the graph.
    """
    return canonical_digest({"kind": "sfg-graph",
                             "schema": SCHEMA_VERSION,
                             "graph": canonical})


def graph_fingerprint(graph: SignalFlowGraph) -> str:
    """Canonical content hash of a graph (structure + quantization).

    The digest covers the full serialized description — node types,
    coefficients, wiring and word-length specs — in a byte-stable
    canonical form (version-tagged, sorted keys, sorted nodes and edges),
    so two graphs describing the same system hash identically regardless
    of construction order.  Used as the content-address of campaign cache
    keys (:mod:`repro.campaign.cache`).
    """
    return fingerprint_of_canonical_dict(canonical_graph_dict(graph))


def assignment_fingerprint(assignment: dict) -> str:
    """Canonical content hash of a word-length assignment.

    ``assignment`` maps node names to fractional bit counts (``None``
    disables quantization), as consumed by ``CompiledPlan.requantize`` and
    the batched evaluators.  Keys are sorted, so dict insertion order does
    not leak into the digest.
    """
    canonical = {str(name): (None if bits is None else int(bits))
                 for name, bits in assignment.items()}
    return canonical_digest({"kind": "wordlength-assignment",
                             "schema": SCHEMA_VERSION,
                             "assignment": canonical})


# ----------------------------------------------------------------------
# Deserialization
# ----------------------------------------------------------------------
_GRAPH_KEYS = ("version", "name", "nodes", "edges")
_EDGE_KEYS = ("source", "target", "port")
_SPEC_KEYS = ("fractional_bits", "rounding", "coefficient_fractional_bits",
              "input_fractional_bits", "edge_fractional_bits")
# The keys each node type reads besides ``name``, ``type`` and, on every
# type but ``output``, the spec keys.
_NODE_KEYS = {
    "input": (), "output": (), "add": ("signs",), "gain": ("gain",),
    "delay": ("delay",), "fir": ("taps",), "iir": ("b", "a"),
    "lti": ("b", "a"), "downsample": ("factor", "phase"),
    "upsample": ("factor",),
}


def _refuse_unread(data: dict, read: tuple, where: str) -> None:
    """Raise a ``ValueError`` naming ``where`` and the first key of
    ``data`` that the loader does not read."""
    unread = sorted(set(data) - set(read))
    if unread:
        raise ValueError(f"{where}: unknown key {unread[0]!r}")


def _integer(data: dict, key: str, default: int, where: str) -> int:
    """``data[key]`` (``default`` when absent) under the rule of the
    spec widths: an integer >= 0, not a bool.  Anything else raises a
    ``ValueError`` naming ``where`` and ``key``."""
    try:
        return int(_check_width(data.get(key, default), key))
    except ValueError as error:
        raise ValueError(f"{where}: {error}") from None


def _spec_from_dict(data: dict) -> QuantizationSpec:
    return QuantizationSpec(
        fractional_bits=data.get("fractional_bits"),
        rounding=data.get("rounding", RoundingMode.ROUND),
        coefficient_fractional_bits=data.get("coefficient_fractional_bits"),
        input_fractional_bits=data.get("input_fractional_bits"),
        edge_fractional_bits=data.get("edge_fractional_bits", {}),
    )


def _node_from_dict(data: dict) -> Node:
    node_type = data.get("type")
    name = data.get("name")
    if not name:
        raise ValueError("every node needs a non-empty 'name'")
    if node_type not in _NODE_KEYS:
        raise ValueError(f"unknown node type {node_type!r} for node {name!r}")
    where = f"node {name!r}"
    if node_type == "output":
        _refuse_unread(data, ("name", "type"), where)
        return OutputNode(name)
    _refuse_unread(data, ("name", "type", *_SPEC_KEYS, *_NODE_KEYS[node_type]),
                   where)
    try:
        spec = _spec_from_dict(data)
    except ValueError as error:
        raise ValueError(f"{where}: {error}") from None
    if node_type == "input":
        return InputNode(name, spec)
    if node_type == "add":
        signs = data.get("signs", [1.0, 1.0])
        return AddNode(name, num_inputs=len(signs), signs=signs,
                       quantization=spec)
    if node_type == "gain":
        return GainNode(name, float(data["gain"]), quantization=spec)
    if node_type == "fir":
        return FirNode(name, data["taps"], quantization=spec)
    if node_type == "iir":
        return IirNode(name, data["b"], data["a"], quantization=spec)
    if node_type == "lti":
        return LtiNode(name, TransferFunction(data["b"], data.get("a", [1.0])),
                       quantization=spec)
    if node_type == "delay":
        node = DelayNode(name, _integer(data, "delay", 1, where))
    elif node_type == "downsample":
        node = DownsampleNode(name, _integer(data, "factor", 2, where),
                              _integer(data, "phase", 0, where))
    else:
        node = UpsampleNode(name, _integer(data, "factor", 2, where))
    # Delays and resamplers take no spec when built, but theirs may
    # carry fanout-tap widths: reattach it so the round-trip stays
    # loss-free.
    node.quantization = spec
    return node


def graph_from_dict(data: dict) -> SignalFlowGraph:
    """Rebuild a graph from its dictionary representation.

    A key that the loader does not read, at the top level, on a node
    (by its type) or on an edge, raises a ``ValueError`` naming it.
    """
    _refuse_unread(data, _GRAPH_KEYS, "graph")
    version = data.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version}")
    graph = SignalFlowGraph(data.get("name", "sfg"))
    for node_data in data.get("nodes", []):
        graph.add_node(_node_from_dict(node_data))
    for edge in data.get("edges", []):
        where = f"edge {edge.get('source')!r} -> {edge.get('target')!r}"
        _refuse_unread(edge, _EDGE_KEYS, where)
        graph.connect(edge["source"], edge["target"],
                      _integer(edge, "port", 0, where))
    graph.validate()
    return graph


def load_graph(path) -> SignalFlowGraph:
    """Read a graph from a JSON file."""
    return graph_from_dict(json.loads(Path(path).read_text()))

"""Signal-flow-graph (SFG) infrastructure.

The paper describes systems as signal-flow graphs "composed of boxes
corresponding to sub-systems defined by their impulse response and
delimited by additive quantization noise sources" (Section III-B).  This
subpackage provides:

* :mod:`~repro.sfg.nodes` — the node vocabulary (inputs, outputs, adders,
  constant gains, delays, FIR / IIR / generic LTI blocks, decimators and
  expanders) together with per-node word-length specifications, transfer
  functions and noise generation (how noise crosses a node is the
  analytical engine's one step rule).
* :mod:`~repro.sfg.graph` — the :class:`SignalFlowGraph` container with
  validation and topological ordering.  Graphs are acyclic: feedback is
  written as an :class:`IirNode`.
* :mod:`~repro.sfg.plan` — graph compilation: a :class:`CompiledPlan`
  freezes the validated topological schedule (index-based wiring,
  pre-constructed quantizers, precomputed noise sources, memoized
  frequency responses) so every evaluation engine runs it many times
  without re-deriving structure.  :meth:`CompiledPlan.run` is the one
  graph executor: double-precision reference or bit-true fixed point,
  one 1-D stream per input.
* :mod:`~repro.sfg.builder` — a small fluent API for assembling graphs in
  examples and tests.
"""

from repro.sfg.nodes import (
    AddNode,
    DelayNode,
    DownsampleNode,
    GainNode,
    FirNode,
    IirNode,
    InputNode,
    LtiNode,
    Node,
    OutputNode,
    QuantizationSpec,
    UpsampleNode,
)
from repro.sfg.graph import Edge, SignalFlowGraph, is_multirate
from repro.sfg.plan import CompiledPlan, ExecutionResult, PlanStep, compile_plan
from repro.sfg.builder import SfgBuilder
from repro.sfg.serialization import (
    assignment_fingerprint,
    canonical_graph_dict,
    graph_fingerprint,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
)

__all__ = [
    "graph_to_dict",
    "graph_from_dict",
    "canonical_graph_dict",
    "graph_fingerprint",
    "assignment_fingerprint",
    "save_graph",
    "load_graph",
    "Node",
    "InputNode",
    "OutputNode",
    "AddNode",
    "GainNode",
    "DelayNode",
    "FirNode",
    "IirNode",
    "LtiNode",
    "DownsampleNode",
    "UpsampleNode",
    "QuantizationSpec",
    "Edge",
    "SignalFlowGraph",
    "is_multirate",
    "CompiledPlan",
    "PlanStep",
    "compile_plan",
    "ExecutionResult",
    "SfgBuilder",
]

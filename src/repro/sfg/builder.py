"""A small fluent helper for assembling signal-flow graphs.

Examples and tests build many small graphs; the builder removes the
boilerplate of creating nodes and wiring ports by hand::

    builder = SfgBuilder("notch")
    x = builder.input("x", fractional_bits=12)
    filtered = builder.fir("h", taps, x, fractional_bits=12)
    y = builder.output("y", filtered)
    graph = builder.build()
"""

from __future__ import annotations

from repro.fixedpoint.quantizer import RoundingMode
from repro.lti.transfer_function import TransferFunction
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
    OutputNode,
    QuantizationSpec,
    UpsampleNode,
)


def _spec(fractional_bits, rounding, coefficient_fractional_bits=None
          ) -> QuantizationSpec:
    return QuantizationSpec(
        fractional_bits=fractional_bits,
        rounding=rounding,
        coefficient_fractional_bits=coefficient_fractional_bits,
    )


class SfgBuilder:
    """Fluent builder producing a :class:`SignalFlowGraph`."""

    def __init__(self, name: str = "sfg"):
        self.graph = SignalFlowGraph(name)

    # ------------------------------------------------------------------
    # Terminals
    # ------------------------------------------------------------------
    def input(self, name: str, fractional_bits: int | None = None,
              rounding: str | RoundingMode = RoundingMode.ROUND) -> str:
        """Add an input node; returns its name."""
        self.graph.add_node(InputNode(name, _spec(fractional_bits, rounding)))
        return name

    def output(self, name: str, source: str) -> str:
        """Add an output node fed by ``source``; returns its name."""
        self.graph.add_node(OutputNode(name))
        self.graph.connect(source, name, 0)
        return name

    # ------------------------------------------------------------------
    # Arithmetic / LTI nodes
    # ------------------------------------------------------------------
    def add(self, name: str, sources: list[str],
            signs: list[float] | None = None,
            fractional_bits: int | None = None,
            rounding: str | RoundingMode = RoundingMode.ROUND) -> str:
        """Add an adder summing ``sources``; returns its name."""
        node = AddNode(name, num_inputs=len(sources), signs=signs,
                       quantization=_spec(fractional_bits, rounding))
        self.graph.add_node(node)
        for port, source in enumerate(sources):
            self.graph.connect(source, name, port)
        return name

    def gain(self, name: str, value: float, source: str,
             fractional_bits: int | None = None,
             rounding: str | RoundingMode = RoundingMode.ROUND,
             coefficient_fractional_bits: int | None = None) -> str:
        """Add a constant-gain node; returns its name."""
        node = GainNode(name, value,
                        quantization=_spec(fractional_bits, rounding,
                                           coefficient_fractional_bits))
        self.graph.add_node(node)
        self.graph.connect(source, name, 0)
        return name

    def delay(self, name: str, source: str, samples: int = 1) -> str:
        """Add a pure-delay node; returns its name."""
        self.graph.add_node(DelayNode(name, samples))
        self.graph.connect(source, name, 0)
        return name

    def fir(self, name: str, taps, source: str,
            fractional_bits: int | None = None,
            rounding: str | RoundingMode = RoundingMode.ROUND,
            coefficient_fractional_bits: int | None = None) -> str:
        """Add an FIR filter node; returns its name."""
        node = FirNode(name, taps,
                       quantization=_spec(fractional_bits, rounding,
                                          coefficient_fractional_bits))
        self.graph.add_node(node)
        self.graph.connect(source, name, 0)
        return name

    def iir(self, name: str, b, a, source: str,
            fractional_bits: int | None = None,
            rounding: str | RoundingMode = RoundingMode.ROUND,
            coefficient_fractional_bits: int | None = None) -> str:
        """Add an IIR filter node; returns its name."""
        node = IirNode(name, b, a,
                       quantization=_spec(fractional_bits, rounding,
                                          coefficient_fractional_bits))
        self.graph.add_node(node)
        self.graph.connect(source, name, 0)
        return name

    def lti(self, name: str, transfer_function: TransferFunction, source: str,
            fractional_bits: int | None = None,
            rounding: str | RoundingMode = RoundingMode.ROUND) -> str:
        """Add a generic LTI node; returns its name."""
        node = LtiNode(name, transfer_function,
                       quantization=_spec(fractional_bits, rounding))
        self.graph.add_node(node)
        self.graph.connect(source, name, 0)
        return name

    # ------------------------------------------------------------------
    # Multirate nodes
    # ------------------------------------------------------------------
    def downsample(self, name: str, source: str, factor: int = 2,
                   phase: int = 0) -> str:
        """Add a decimator node; returns its name."""
        self.graph.add_node(DownsampleNode(name, factor, phase))
        self.graph.connect(source, name, 0)
        return name

    def upsample(self, name: str, source: str, factor: int = 2) -> str:
        """Add an expander node; returns its name."""
        self.graph.add_node(UpsampleNode(name, factor))
        self.graph.connect(source, name, 0)
        return name

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def build(self) -> SignalFlowGraph:
        """Validate and return the graph."""
        self.graph.validate()
        return self.graph

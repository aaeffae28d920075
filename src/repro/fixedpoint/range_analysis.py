"""Dynamic-range analysis: interval and affine arithmetic over an SFG.

The paper separates the two halves of fixed-point refinement: the *integer*
part of each word is sized from the signal's dynamic range (using interval
arithmetic, affine arithmetic or statistical range analysis — Section I),
while the *fractional* part is sized from the accuracy analysis that the
rest of this library implements.  This module supplies the range half so
that a complete word-length (integer + fractional bits) can be derived for
every node of a signal-flow graph:

* :class:`Interval` — classical interval arithmetic (fast, conservative,
  loses correlation between re-convergent paths);
* :class:`AffineForm` — affine arithmetic: ranges are expressed as a
  central value plus a linear combination of noise symbols, so perfectly
  correlated contributions can cancel (``x - x = 0``), which tightens the
  bounds of adder trees considerably;
* :func:`analyze_ranges` — propagation of either representation through an
  acyclic SFG.  LTI blocks use the worst-case (L1-norm) gain of their
  impulse response, which is exact for adversarial inputs; adders and
  constant gains use the interval / affine rules directly.
* :func:`integer_bits_for_range` — convert a range into the integer bit
  count needed to avoid overflow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.sfg.graph import SignalFlowGraph
from repro.sfg.nodes import (
    AddNode,
    DelayNode,
    DownsampleNode,
    GainNode,
    InputNode,
    Node,
    OutputNode,
    UpsampleNode,
    _LtiMixin,
)


# ----------------------------------------------------------------------
# Interval arithmetic
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Interval:
    """A closed interval ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError(f"empty interval [{self.low}, {self.high}]")

    @classmethod
    def point(cls, value: float) -> "Interval":
        """The degenerate interval containing a single value."""
        return cls(value, value)

    @classmethod
    def symmetric(cls, magnitude: float) -> "Interval":
        """The interval ``[-magnitude, +magnitude]``."""
        magnitude = abs(magnitude)
        return cls(-magnitude, magnitude)

    @property
    def width(self) -> float:
        """Length of the interval."""
        return self.high - self.low

    @property
    def magnitude(self) -> float:
        """Largest absolute value contained in the interval."""
        return max(abs(self.low), abs(self.high))

    def __add__(self, other: "Interval") -> "Interval":
        if not isinstance(other, Interval):
            return NotImplemented
        return Interval(self.low + other.low, self.high + other.high)

    def __sub__(self, other: "Interval") -> "Interval":
        if not isinstance(other, Interval):
            return NotImplemented
        return Interval(self.low - other.high, self.high - other.low)

    def __neg__(self) -> "Interval":
        return Interval(-self.high, -self.low)

    def scaled(self, gain: float) -> "Interval":
        """The interval multiplied by a constant."""
        a, b = self.low * gain, self.high * gain
        return Interval(min(a, b), max(a, b))

    def __mul__(self, other):
        if np.isscalar(other):
            return self.scaled(float(other))
        if isinstance(other, Interval):
            candidates = [self.low * other.low, self.low * other.high,
                          self.high * other.low, self.high * other.high]
            return Interval(min(candidates), max(candidates))
        return NotImplemented

    __rmul__ = __mul__

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both operands."""
        return Interval(min(self.low, other.low), max(self.high, other.high))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Interval({self.low:.6g}, {self.high:.6g})"


# ----------------------------------------------------------------------
# Affine arithmetic
# ----------------------------------------------------------------------
_symbol_counter = itertools.count(1)


def fresh_symbol() -> int:
    """Allocate a new affine noise-symbol identifier."""
    return next(_symbol_counter)


@dataclass(frozen=True)
class AffineForm:
    """An affine form ``x0 + sum_i x_i * eps_i`` with ``eps_i in [-1, 1]``.

    Attributes
    ----------
    center:
        Central value ``x0``.
    terms:
        Mapping from symbol identifier to partial deviation ``x_i``.
    """

    center: float
    terms: dict = field(default_factory=dict)

    @classmethod
    def from_interval(cls, interval: Interval,
                      symbol: int | None = None) -> "AffineForm":
        """Affine form spanning an interval with one fresh symbol."""
        if symbol is None:
            symbol = fresh_symbol()
        center = (interval.low + interval.high) / 2.0
        radius = interval.width / 2.0
        terms = {symbol: radius} if radius > 0.0 else {}
        return cls(center=center, terms=terms)

    @classmethod
    def constant(cls, value: float) -> "AffineForm":
        """An exactly known value."""
        return cls(center=float(value), terms={})

    @property
    def radius(self) -> float:
        """Total deviation ``sum_i |x_i|``."""
        return float(sum(abs(v) for v in self.terms.values()))

    def to_interval(self) -> Interval:
        """Enclosing interval of the affine form."""
        return Interval(self.center - self.radius, self.center + self.radius)

    def __add__(self, other: "AffineForm") -> "AffineForm":
        if not isinstance(other, AffineForm):
            return NotImplemented
        terms = dict(self.terms)
        for symbol, value in other.terms.items():
            terms[symbol] = terms.get(symbol, 0.0) + value
        terms = {s: v for s, v in terms.items() if v != 0.0}
        return AffineForm(self.center + other.center, terms)

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        if not isinstance(other, AffineForm):
            return NotImplemented
        return self + other.scaled(-1.0)

    def scaled(self, gain: float) -> "AffineForm":
        """The affine form multiplied by a constant."""
        return AffineForm(self.center * gain,
                          {s: v * gain for s, v in self.terms.items()})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"AffineForm(center={self.center:.6g}, "
                f"radius={self.radius:.6g}, symbols={len(self.terms)})")


# ----------------------------------------------------------------------
# Propagation through a signal-flow graph
# ----------------------------------------------------------------------
def _l1_gain(node: Node) -> float:
    """Worst-case (L1-norm) gain of an LTI node's impulse response."""
    impulse = node._effective_transfer_function().impulse_response()
    return float(np.sum(np.abs(impulse)))


def _propagate_interval(node: Node, inputs: list[Interval]) -> Interval:
    if isinstance(node, OutputNode):
        return inputs[0]
    if isinstance(node, AddNode):
        total = Interval.point(0.0)
        for sign, value in zip(node.signs, inputs):
            total = total + value.scaled(sign)
        return total
    if isinstance(node, GainNode):
        return inputs[0].scaled(node._quantized_gain())
    if isinstance(node, (DelayNode, DownsampleNode, UpsampleNode)):
        if isinstance(node, UpsampleNode):
            return inputs[0].hull(Interval.point(0.0))
        return inputs[0]
    if isinstance(node, _LtiMixin):
        magnitude = inputs[0].magnitude * _l1_gain(node)
        return Interval.symmetric(magnitude)
    raise NotImplementedError(
        f"range analysis does not support node type {type(node).__name__}")


def _propagate_affine(node: Node, inputs: list[AffineForm]) -> AffineForm:
    if isinstance(node, OutputNode):
        return inputs[0]
    if isinstance(node, AddNode):
        total = AffineForm.constant(0.0)
        for sign, value in zip(node.signs, inputs):
            total = total + value.scaled(sign)
        return total
    if isinstance(node, GainNode):
        return inputs[0].scaled(node._quantized_gain())
    if isinstance(node, (DelayNode, DownsampleNode, UpsampleNode)):
        if isinstance(node, UpsampleNode):
            # The zero samples pull the range towards zero; keep the hull.
            interval = inputs[0].to_interval().hull(Interval.point(0.0))
            return AffineForm.from_interval(interval)
        return inputs[0]
    if isinstance(node, _LtiMixin):
        # A filter mixes samples from different times: temporal correlation
        # is not representable by instantaneous affine symbols, so the
        # worst-case L1 bound is applied and the result gets a fresh symbol.
        magnitude = inputs[0].to_interval().magnitude * _l1_gain(node)
        return AffineForm.from_interval(Interval.symmetric(magnitude))
    raise NotImplementedError(
        f"range analysis does not support node type {type(node).__name__}")


def analyze_ranges(graph: SignalFlowGraph, input_ranges: dict,
                   method: str = "interval") -> dict:
    """Propagate value ranges from the inputs to every node of the graph.

    Parameters
    ----------
    graph:
        Validated acyclic signal-flow graph.
    input_ranges:
        Mapping from input-node name to an :class:`Interval` (or a
        ``(low, high)`` tuple) describing the input's dynamic range.
    method:
        ``interval`` (default) or ``affine``.

    Returns
    -------
    dict
        Mapping from node name to its :class:`Interval` range (affine forms
        are collapsed to their enclosing interval in the result).
    """
    if method not in ("interval", "affine"):
        raise ValueError(f"unknown range-analysis method {method!r}")
    graph.validate()
    missing = set(graph.input_names()) - set(input_ranges)
    if missing:
        raise ValueError(f"missing range for input node(s) {sorted(missing)}")

    normalized = {}
    for name, value in input_ranges.items():
        normalized[name] = value if isinstance(value, Interval) \
            else Interval(float(value[0]), float(value[1]))

    values: dict[str, object] = {}
    for name in graph.topological_order():
        node = graph.node(name)
        if isinstance(node, InputNode):
            interval = normalized[name]
            values[name] = (interval if method == "interval"
                            else AffineForm.from_interval(interval))
            continue
        inputs = [values[edge.source] for edge in graph.predecessors(name)]
        if method == "interval":
            values[name] = _propagate_interval(node, inputs)
        else:
            values[name] = _propagate_affine(node, inputs)

    result: dict[str, Interval] = {}
    for name, value in values.items():
        result[name] = value if isinstance(value, Interval) else value.to_interval()
    return result


# ----------------------------------------------------------------------
# Integer word-length assignment
# ----------------------------------------------------------------------
def integer_bits_for_range(interval: Interval) -> int:
    """Integer bits of a signed format that holds ``interval`` without
    overflow."""
    magnitude = interval.magnitude
    if magnitude == 0.0:
        return 0
    bits = 0
    while (2.0 ** bits) < magnitude:
        bits += 1
    if (2.0 ** bits) == magnitude and interval.high >= magnitude:
        # +2^k itself is not representable in a signed format with k
        # integer bits (max is 2^k - step); round up.
        bits += 1
    return bits


def simulate_ranges(graph: SignalFlowGraph, stimulus: dict,
                    mode: str = "double") -> dict:
    """Measured per-node ranges for a concrete stimulus (for comparison).

    Range analysis is conservative by construction; this helper runs the
    graph once and reports the observed min/max of every node signal so
    that tests and examples can quantify the pessimism.
    """
    from repro.sfg.plan import compile_plan

    result = compile_plan(graph).run(stimulus, mode=mode, keep_signals=True)
    return {name: Interval(float(np.min(signal)), float(np.max(signal)))
            for name, signal in result.signals.items()}

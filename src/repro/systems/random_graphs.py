"""Seeded random signal-flow-graph generator.

The hand-built systems (Table-I banks, the DWT 9/7 codec, the scenario
families of :mod:`repro.systems.families`) cover a handful of fixed
topologies; the differential fuzzing harness (:mod:`repro.verify`) wants
*arbitrary* ones.  This module grows random — but guaranteed-valid —
fixed-point systems from a single integer seed:

* **valid wiring by construction**: the generator only ever extends a set
  of live signal endpoints through :class:`~repro.sfg.builder.SfgBuilder`
  operations, so every input port ends up driven and the graph is acyclic;
* **rate discipline**: every endpoint lives at the input rate.  Multirate
  structure is emitted as an atomic *segment* (decimate → low-rate filter
  → expand → image filter) that returns to the input rate, plus an
  optional final output decimator — adders therefore always merge
  same-rate signals and the PSD walk always sees compatible bin counts;
* **stability-constrained, level-preserving coefficients**: IIR sections
  are built from explicitly placed poles (radius ≤ 0.85) and every random
  filter is normalized to unit noise gain (``sum |h|^2 = 1``), so a white
  signal keeps its variance through arbitrary cascades — neither blowing
  up nor decaying below the quantization steps, which would leave the
  validity domain of the PQN noise model the estimators rest on;
* **seeded word lengths**: every arithmetic node draws its fractional
  word length (and rounding mode) from the same seeded stream.

Everything is derived from one :class:`numpy.random.Generator` seeded
with the graph seed, so the same seed reproduces the same graph —
bit-for-bit, including its canonical fingerprint — in any process.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.lti.fir_design import design_fir_lowpass
from repro.lti.transfer_function import TransferFunction
from repro.sfg.builder import SfgBuilder
from repro.sfg.graph import SignalFlowGraph
from repro.sfg.nodes import OutputNode

#: Default factors a multirate segment may decimate/expand by.  ``n_psd``
#: values used on random graphs must be divisible by each (see
#: :data:`COMPATIBLE_N_PSD`).
SEGMENT_FACTORS = (2, 3)

#: A PSD bin count divisible by every segment factor (and by the optional
#: final output decimator), safe for any generated graph.
COMPATIBLE_N_PSD = 192


def _random_fir_taps(rng: np.random.Generator) -> list[float]:
    """Random FIR taps with unit noise gain (``sum h^2 = 1``)."""
    count = int(rng.integers(3, 12))
    taps = rng.uniform(-1.0, 1.0, count)
    while float(np.sum(taps * taps)) < 1e-6:  # essentially-zero redraw
        taps = rng.uniform(-1.0, 1.0, count)
    return [float(t) for t in taps / np.sqrt(np.sum(taps * taps))]


def _tap_correlation(first, second) -> float:
    """Zero-lag correlation of two unit-noise-gain tap vectors."""
    length = max(len(first), len(second))
    padded_first = np.zeros(length)
    padded_first[:len(first)] = first
    padded_second = np.zeros(length)
    padded_second[:len(second)] = second
    return float(np.dot(padded_first, padded_second))


def _random_iir_coefficients(rng: np.random.Generator):
    """Stability-constrained (b, a): poles placed inside radius 0.85,
    numerator scaled to unit noise gain (``integral |H|^2 = 1``)."""
    if rng.random() < 0.35:  # first-order section
        pole = float(rng.uniform(-0.85, 0.85))
        a = [1.0, -pole]
    else:  # conjugate-pair biquad
        radius = float(rng.uniform(0.3, 0.85))
        angle = float(rng.uniform(0.05, 0.95)) * np.pi
        a = [1.0, -2.0 * radius * np.cos(angle), radius * radius]
    b = rng.uniform(-1.0, 1.0, int(rng.integers(1, 4)))
    while float(np.max(np.abs(b))) < 0.05:
        b = rng.uniform(-1.0, 1.0, b.size)
    energy = float(TransferFunction(b, a).energy())
    return [float(c) for c in b / np.sqrt(energy)], [float(c) for c in a]


class _RandomSfgGrower:
    """Stateful helper growing one graph from one seeded stream."""

    def __init__(self, rng: np.random.Generator, builder: SfgBuilder,
                 min_bits: int, max_bits: int,
                 factors: tuple = SEGMENT_FACTORS):
        self.rng = rng
        self.builder = builder
        self.min_bits = min_bits
        self.max_bits = max_bits
        self.factors = tuple(factors)
        self.endpoints: list[str] = []
        self._counts: dict[str, int] = {}

    def name(self, kind: str) -> str:
        index = self._counts.get(kind, 0)
        self._counts[kind] = index + 1
        return f"{kind}{index}"

    def bits(self) -> int:
        return int(self.rng.integers(self.min_bits, self.max_bits + 1))

    def rounding(self) -> str:
        return "truncate" if self.rng.random() < 0.25 else "round"

    def take(self) -> str:
        """Remove and return a random live endpoint."""
        return self.endpoints.pop(int(self.rng.integers(len(self.endpoints))))

    # -- elementary growth operations ----------------------------------
    def grow_fir(self, source: str) -> str:
        return self.builder.fir(self.name("fir"), _random_fir_taps(self.rng),
                                source, fractional_bits=self.bits(),
                                rounding=self.rounding())

    def grow_fork(self, source: str) -> tuple[str, str]:
        """Fan ``source`` out into two independently-filtered branches.

        The PSD engine treats reconvergent paths as uncorrelated (Eq. 14
        of the paper), so the generator must stay inside that modeling
        assumption: both copies get their own random FIR, redrawn until
        the two tap vectors are nearly orthogonal, so noise shared by the
        branches can neither cancel nor coherently add when they merge.
        """
        first_taps = _random_fir_taps(self.rng)
        second_taps = _random_fir_taps(self.rng)
        while abs(_tap_correlation(first_taps, second_taps)) > 0.5:
            second_taps = _random_fir_taps(self.rng)
        first = self.builder.fir(self.name("fir"), first_taps, source,
                                 fractional_bits=self.bits(),
                                 rounding=self.rounding())
        second = self.builder.fir(self.name("fir"), second_taps, source,
                                  fractional_bits=self.bits(),
                                  rounding=self.rounding())
        return first, second

    def grow_iir(self, source: str) -> str:
        b, a = _random_iir_coefficients(self.rng)
        return self.builder.iir(self.name("iir"), b, a, source,
                                fractional_bits=self.bits(),
                                rounding=self.rounding())

    def grow_gain(self, source: str) -> str:
        # Bounded away from zero: heavy attenuation would push downstream
        # signals below the quantization steps (PQN validity, see module
        # docstring).
        value = float(self.rng.uniform(0.35, 1.3))
        if self.rng.random() < 0.5:
            value = -value
        return self.builder.gain(self.name("gain"), value, source,
                                 fractional_bits=self.bits(),
                                 rounding=self.rounding())

    def grow_delay(self, source: str) -> str:
        return self.builder.delay(self.name("delay"), source,
                                  samples=int(self.rng.integers(1, 9)))

    def grow_add(self, sources: list[str]) -> str:
        signs = [1.0] + [-1.0 if self.rng.random() < 0.4 else 1.0
                         for _ in sources[1:]]
        return self.builder.add(self.name("add"), sources, signs=signs,
                                fractional_bits=self.bits(),
                                rounding=self.rounding())

    def grow_segment(self, source: str) -> str:
        """Decimate → low-rate filter → expand → image filter; the segment
        returns to the input rate, so endpoint rates stay uniform."""
        factor = int(self.rng.choice(self.factors))
        index = self._counts.get("segment", 0)
        self._counts["segment"] = index + 1
        low_rate = self.builder.downsample(f"seg{index}_down", source, factor)
        inner = (self.grow_iir(low_rate) if self.rng.random() < 0.4
                 else self.grow_fir(low_rate))
        expanded = self.builder.upsample(f"seg{index}_up", inner, factor)
        image = factor * design_fir_lowpass(int(self.rng.integers(7, 16)),
                                            0.8 / factor)
        return self.builder.fir(f"seg{index}_img", list(image), expanded,
                                fractional_bits=self.bits(),
                                rounding=self.rounding())


def build_random_graph(seed: int, blocks: int = 8, multirate: bool = True,
                       min_bits: int = 8, max_bits: int = 14,
                       factors: tuple = SEGMENT_FACTORS,
                       name: str | None = None) -> SignalFlowGraph:
    """Grow one random, valid, stable fixed-point signal-flow graph.

    Parameters
    ----------
    seed:
        The single source of randomness; the same seed always rebuilds the
        same graph (identical canonical fingerprint).
    blocks:
        Number of growth operations applied after the inputs — the
        knob the fuzz shrinker minimizes.
    multirate:
        Whether decimator/expander segments (and a final output
        decimator) may appear.  When they do, PSD-based evaluations must
        use a bin count divisible by every ``factors`` entry
        (:data:`COMPATIBLE_N_PSD` always works for the defaults).
    min_bits, max_bits:
        Range of the per-node seeded fractional word lengths.
    factors:
        Factors a multirate segment may pick from (the campaign scenario
        restricts this to ``(2,)`` so power-of-two ``n_psd`` values stay
        compatible).
    """
    if blocks < 0:
        raise ValueError(f"blocks must be non-negative, got {blocks}")
    if not 1 <= min_bits <= max_bits:
        raise ValueError(
            f"need 1 <= min_bits <= max_bits, got [{min_bits}, {max_bits}]")
    if multirate and not factors:
        raise ValueError("multirate graphs need at least one segment factor")
    rng = np.random.default_rng(seed)
    builder = SfgBuilder(name or f"random-sfg-seed{seed}")
    grower = _RandomSfgGrower(rng, builder, min_bits, max_bits,
                              factors=factors if multirate else ())

    num_inputs = 2 if blocks >= 4 and rng.random() < 0.3 else 1
    for index in range(num_inputs):
        grower.endpoints.append(builder.input(
            f"x{index}", fractional_bits=grower.bits(),
            rounding=grower.rounding()))

    operations = ["fir", "iir", "gain", "delay", "fork", "add"]
    weights = [0.24, 0.17, 0.14, 0.10, 0.12, 0.23]
    if multirate:
        operations.append("segment")
        weights.append(0.16)
    probabilities = np.asarray(weights) / np.sum(weights)

    for _ in range(blocks):
        operation = str(rng.choice(operations, p=probabilities))
        if operation == "add" and len(grower.endpoints) < 2:
            operation = "fir"
        if operation == "add":
            first, second = grower.take(), grower.take()
            grower.endpoints.append(grower.grow_add([first, second]))
        elif operation == "fork":
            grower.endpoints.extend(grower.grow_fork(grower.take()))
        elif operation == "segment":
            grower.endpoints.append(grower.grow_segment(grower.take()))
        else:
            grow = getattr(grower, f"grow_{operation}")
            grower.endpoints.append(grow(grower.take()))

    # Merge the surviving endpoints (all at the input rate) into one
    # signal, optionally decimate it, and terminate the graph.
    while len(grower.endpoints) > 1:
        first, second = grower.take(), grower.take()
        grower.endpoints.append(grower.grow_add([first, second]))
    (tail,) = grower.endpoints
    if multirate and rng.random() < 0.25:
        # The smallest declared segment factor, so an n_psd divisible by
        # every ``factors`` entry can always fold the output PSD too.
        tail = builder.downsample("final_down", tail, min(grower.factors))
    builder.output("y", tail)
    return builder.build()


def random_assignments(graph: SignalFlowGraph, seed: int, count: int,
                       min_bits: int = 6, max_bits: int = 16,
                       edges: bool = False) -> list[dict]:
    """Seeded stack of word-length assignments over a graph's quantized
    nodes (the configuration axis of the batched evaluators).

    Each assignment redraws every quantized node's fractional bits; with
    a small probability a node is disabled (``None``) so the
    no-quantization path of the batch machinery gets fuzzed too.

    With ``edges=True`` the vocabulary also covers per-fanout-branch
    ``"source->target"`` keys: a random subset of the unambiguous edges
    with quantized sources is drawn *once* per stack, and every
    assignment then sets each drawn key to either ``None`` (no tap) or a
    random width.  Naming the same edge keys in every assignment keeps
    batched evaluation and one-by-one sequential replay equivalent —
    a key present in one assignment but absent from the next would
    leave a stale tap behind in the sequential replay.  The edge draws
    use an independent RNG stream, so for a given seed the node-level
    draws are bitwise identical with and without ``edges``.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    quantized = _quantized_nodes(graph)
    tapped: list[str] = []
    edge_rng = None
    if edges:
        edge_rng = np.random.default_rng([seed, 2_654_435_769])
        tapped = [key for key in _tappable_edges(graph)
                  if edge_rng.random() < 0.25]
    stack = []
    for _ in range(count):
        assignment: dict[str, int | None] = {}
        for node_name in quantized:
            if rng.random() < 0.08:
                assignment[node_name] = None
            else:
                assignment[node_name] = int(rng.integers(min_bits,
                                                         max_bits + 1))
        for key in tapped:
            if edge_rng.random() < 0.25:
                assignment[key] = None
            else:
                assignment[key] = int(edge_rng.integers(min_bits,
                                                        max_bits + 1))
        stack.append(assignment)
    return stack


def random_deltas(graph: SignalFlowGraph, seed: int,
                  count: int) -> list[dict]:
    """Seeded stack of one-key deltas against the graph's current word
    lengths — the shape of a greedy optimizer round.

    The first config changes nothing; the others cycle through setting
    one fanout tap (a ``"source->target"`` key; a node when the graph has
    no tappable edge), setting one quantized node's fractional bits, and
    disabling one quantized node (``None``), with seeded keys and widths
    (6 to 16 fractional bits, the :func:`random_assignments` range).
    Every config's cone is then the downstream cone of a single step,
    which is what the row-sparse batched walks exploit.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    quantized = _quantized_nodes(graph)
    tappable = _tappable_edges(graph)
    stack: list[dict] = [{}]
    while len(stack) < count:
        kind = (len(stack) - 1) % 3
        if kind == 0 and tappable:
            key = tappable[rng.integers(len(tappable))]
        else:
            key = quantized[rng.integers(len(quantized))]
        bits = None if kind == 2 else int(rng.integers(6, 17))
        stack.append({key: bits})
    return stack


def _quantized_nodes(graph: SignalFlowGraph) -> list[str]:
    return [name for name, node in graph.nodes.items()
            if node.quantization.enabled]


def _tappable_edges(graph: SignalFlowGraph) -> list[str]:
    """``"source->target"`` keys a fanout tap can name: unique node
    pairs with a quantized source and a non-output target."""
    pair_counts = Counter((edge.source, edge.target) for edge in graph.edges)
    eligible = []
    for edge in graph.edges:
        key = f"{edge.source}->{edge.target}"
        if (key in eligible
                or pair_counts[edge.source, edge.target] != 1
                or not graph.nodes[edge.source].quantization.enabled
                or isinstance(graph.nodes[edge.target], OutputNode)):
            continue
        eligible.append(key)
    return eligible

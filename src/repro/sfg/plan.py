"""Compiled execution plans for signal-flow graphs.

Every evaluation path of the library — bit-true simulation, the three
analytical noise walks and the word-length optimizer's inner loop — needs
the same structural information about a :class:`SignalFlowGraph`: that the
graph is valid, its topological order, the predecessor wiring of every
node, the set of nodes that generate quantization noise and the frequency
responses of the LTI blocks.  The graph itself is a mutable, name-keyed
editing structure; recomputing all of that on every evaluation dominates
the cost of the analytical methods, which defeats the paper's central
claim that PSD-based estimation is orders of magnitude faster than
simulation.

:class:`CompiledPlan` splits the two concerns (the same editor-graph /
command-buffer split used by node-graph engines): the graph is compiled
*once* into a frozen, index-based schedule which is then run any number of
times.

* validation and topological ordering happen at compile time;
* predecessor edges are resolved to integer signal slots, not names;
* per-node data-path quantizers are pre-constructed;
* the noise-generating nodes and their moments are precomputed;
* per-node frequency responses (block responses and IIR noise-shaping
  responses) are memoized per ``(node, n_bins)``, keyed by the effective
  coefficient precision so that re-quantizing the data path never
  invalidates them.

Re-quantization — the word-length optimizer's inner loop — is supported in
place through :meth:`CompiledPlan.requantize`; in-place *coefficient*
edits (assigning to ``GainNode.gain`` and the like) are detected by
:meth:`CompiledPlan.refresh`, which then drops the *edited steps'*
memoized responses and stamps those steps with a new plan epoch so the
pull-based analytical engines (:mod:`repro.analysis._engine`) recompute
only the dirty downstream cone instead of re-walking the whole graph;
any *structural* change to the graph (adding / removing nodes or edges,
swapping node objects) requires a new plan, which :func:`compile_plan`
detects automatically.

On top of single-configuration reuse, :class:`ConfigStack` resolves a
whole *stack* of word-length assignments against one plan — per-step
noise moments with a leading config axis, responses shared per effective
coefficient precision — which is what the configuration-batched
analytical walks (``evaluate_*_batch``) consume.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.fixedpoint.noise_model import NoiseStats, quantization_noise_stats
from repro.lti.transfer_function import TransferFunction
from repro.obs import metric_inc, span
from repro.psd.propagation import TrackedSpectrum
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
    UpsampleNode,
)


def parse_edge_key(key: str) -> tuple[str, str]:
    """Split a ``"source->target"`` edge key into its node names."""
    source, separator, target = key.partition("->")
    if not separator or not source or not target:
        raise ValueError(
            f"{key!r} is neither a node name nor a 'source->target' edge "
            "key")
    return source, target


class EdgeTap:
    """A per-fanout-branch re-quantizer on one edge of the schedule.

    Materialized from the *source* node's
    :attr:`~repro.sfg.nodes.QuantizationSpec.edge_fractional_bits` entry
    toward this step, and stored on the *target* step (aligned with its
    predecessor ports) because that is where both the fixed-point walk
    and the analytical engines consume the tapped value.

    Attributes
    ----------
    key:
        The ``"source->target"`` assignment key of this tap.
    bits:
        Fractional word length of the tap.
    rounding, input_bits:
        Rounding mode and input-grid precision inherited from the source
        spec (``input_bits`` is the source's own output word length, or
        ``None`` when the source does not quantize).
    quantizer:
        Pre-constructed quantizer applied to the tapped value in fixed
        point.
    noise:
        PQN moments the tap injects, or ``None`` when the tap is a no-op
        (at least as fine as the source grid — then the quantizer is
        numerically the identity and the noise is exactly zero).
    """

    __slots__ = ("key", "bits", "rounding", "input_bits", "quantizer",
                 "noise")

    def __init__(self, key: str, bits: int, rounding, input_bits,
                 quantizer, noise: NoiseStats | None):
        self.key = key
        self.bits = bits
        self.rounding = rounding
        self.input_bits = input_bits
        self.quantizer = quantizer
        self.noise = noise

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeTap({self.key!r}, bits={self.bits})"


def _taps_signature(taps) -> tuple | None:
    if taps is None:
        return None
    return tuple(
        None if tap is None else
        (tap.bits, tap.rounding, tap.input_bits,
         None if tap.noise is None else (tap.noise.mean, tap.noise.variance))
        for tap in taps)


class PlanStep:
    """One node of the compiled schedule.

    Attributes
    ----------
    index:
        Position of the step (and of its output signal slot) in the
        schedule.
    name:
        Node name (kept for result dictionaries and error messages).
    node:
        The live node object; its behavioural methods are still the single
        source of truth for simulation and propagation semantics.
    predecessors:
        Indices of the steps driving this node's input ports, in port
        order.
    is_source:
        Whether the node has no predecessors (inputs and constant sources).
    quantizer:
        Pre-constructed data-path quantizer (``None`` when the node does
        not quantize).
    noise:
        Moments of the node's own quantization-noise source, or ``None``
        when the node is noiseless under its current specification.
    edge_taps:
        ``None`` when no incoming edge is tapped; otherwise a tuple
        aligned with :attr:`predecessors` holding an :class:`EdgeTap`
        (or ``None``) per input port.
    """

    __slots__ = ("index", "name", "node", "predecessors", "is_source",
                 "quantizer", "noise", "edge_taps")

    def __init__(self, index: int, name: str, node: Node,
                 predecessors: tuple[int, ...]):
        self.index = index
        self.name = name
        self.node = node
        self.predecessors = predecessors
        self.is_source = isinstance(node, InputNode) or node.num_inputs == 0
        self.quantizer = None
        self.noise: NoiseStats | None = None
        self.edge_taps: tuple | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlanStep({self.index}, {self.name!r})"


@dataclass
class ExecutionResult:
    """Signals produced by one execution of a graph.

    Attributes
    ----------
    outputs:
        Mapping from output-node name to its signal.
    signals:
        Mapping from every node name to its output signal (only populated
        when the run is asked to keep intermediate signals).
    """

    outputs: dict[str, np.ndarray]
    signals: dict[str, np.ndarray] = field(default_factory=dict)

    def output(self, name: str | None = None) -> np.ndarray:
        """Return a single output signal.

        Parameters
        ----------
        name:
            Output-node name; may be omitted when the graph has exactly
            one output.
        """
        if name is None:
            if len(self.outputs) != 1:
                raise ValueError(
                    "graph has several outputs; specify which one to read "
                    f"among {sorted(self.outputs)}")
            return next(iter(self.outputs.values()))
        return self.outputs[name]


class CompiledPlan:
    """A frozen, index-based execution schedule for one graph structure.

    Parameters
    ----------
    graph:
        Acyclic :class:`SignalFlowGraph`; validated once, here.

    Notes
    -----
    The plan snapshots the graph *structure*; quantization specifications
    remain live and can be updated through :meth:`requantize` (or by
    mutating the node specs and calling :meth:`refresh`).  Prefer building
    plans through :func:`compile_plan`, which caches one plan per graph and
    transparently refreshes it when only quantization changed.
    """

    def __init__(self, graph: SignalFlowGraph):
        graph.validate()
        self.graph = graph
        order = graph.topological_order()
        index_of = {name: i for i, name in enumerate(order)}
        steps: list[PlanStep] = []
        for name in order:
            predecessors = tuple(index_of[edge.source]
                                 for edge in graph.predecessors(name))
            steps.append(PlanStep(len(steps), name, graph.node(name),
                                  predecessors))
        self.steps: tuple[PlanStep, ...] = tuple(steps)
        self.index_of = index_of
        self.input_names: tuple[str, ...] = tuple(graph.input_names())
        self.output_names: tuple[str, ...] = tuple(graph.output_names())
        self.output_indices: tuple[int, ...] = tuple(
            index_of[name] for name in self.output_names)
        # Downstream-cone index: integer successor adjacency, the dual of
        # each step's predecessor tuple.  The incremental engines use it to
        # bound what an edit can influence (everything reachable from the
        # dirty steps); like the schedule itself it is frozen at compile
        # time because structural edits always produce a new plan.
        successors: list[set[int]] = [set() for _ in steps]
        for step in steps:
            for predecessor in step.predecessors:
                successors[predecessor].add(step.index)
        self._successors: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in successors)
        # Edge index for per-edge word lengths: (source, target) -> the
        # (target step, input port) slots that pair connects.  A pair
        # wired on several ports makes an edge key ambiguous, which
        # _resolve_edge rejects.
        edge_index: dict[tuple[str, str], list[tuple[int, int]]] = {}
        for name in order:
            for edge in graph.predecessors(name):
                edge_index.setdefault((edge.source, name), []).append(
                    (index_of[name], edge.port))
        self._edge_index = edge_index
        # Signatures iterate graph.nodes in insertion order while steps are
        # topologically ordered; this maps signature position -> step index.
        self._node_order: tuple[int, ...] = tuple(
            index_of[name] for name in graph.nodes)
        # Dirty tracking for the pull-based evaluation engines: the plan
        # epoch counts refreshes that changed something, and each step
        # records the epoch at which its *local evaluation signature*
        # (coefficients, effective coefficient precision, own noise
        # moments) last changed.  Consumers snapshot the epoch and later
        # ask steps_dirty_since() for the steps to re-pull.
        self._epoch = 0
        self._step_epochs = np.zeros(len(steps), dtype=np.int64)
        self._local_signatures: list[tuple | None] = [None] * len(steps)
        self._structure_signature = structure_signature(graph)
        self._quantization_signature: tuple = ()
        self._coefficient_signature: tuple = ()
        # Frequency responses and impulse-response scalars depend only on
        # the node coefficients and their effective precision, so cache
        # entries are keyed by that precision and survive re-quantization;
        # coefficient changes are detected by refresh(), which then drops
        # the caches wholesale.
        self._response_cache: dict[tuple, np.ndarray] = {}
        self._tf_cache: dict[tuple, TransferFunction] = {}
        self._gain_cache: dict[tuple, tuple[float, float]] = {}
        self.noise_steps: tuple[PlanStep, ...] = ()
        self.refresh()

    # ------------------------------------------------------------------
    # Quantization state
    # ------------------------------------------------------------------
    def refresh(self) -> bool:
        """Re-read the quantization specs and coefficients of every node.

        Dirty marking is per step: quantizers and noise moments are
        rebuilt only for the steps whose spec or coefficients actually
        changed since the last refresh, an in-place coefficient change
        (e.g. assigning to ``GainNode.gain``) additionally drops that
        step's memoized transfer functions and frequency responses (every
        cache key starts with the step index, so eviction is a key
        filter, not a wholesale clear), and the plan epoch is bumped so
        pull-based consumers (:class:`~repro.analysis._engine.NoiseMemo`)
        can recompute just the downstream cone of the dirty steps.
        Returns whether anything was rebuilt.
        """
        num_steps = len(self.steps)
        changed: set[int] = set()
        coefficients = coefficient_signature(self.graph)
        if coefficients != self._coefficient_signature:
            previous = self._coefficient_signature
            if len(previous) == len(coefficients) == num_steps:
                edited = {self._node_order[i]
                          for i, (was, now)
                          in enumerate(zip(previous, coefficients))
                          if was != now}
            else:
                edited = set(range(num_steps))
            self._coefficient_signature = coefficients
            for cache in (self._tf_cache, self._response_cache,
                          self._gain_cache):
                for key in [key for key in cache if key[0] in edited]:
                    del cache[key]
            # Generated noise can depend on coefficients too (e.g. the
            # frequency-domain FIR node), so the edited steps join the
            # quantizer/noise rebuild below.
            changed |= edited
        signature = quantization_signature(self.graph)
        if signature != self._quantization_signature:
            previous = self._quantization_signature
            if len(previous) == len(signature) == num_steps:
                for i, (was, now) in enumerate(zip(previous, signature)):
                    if was == now:
                        continue
                    index = self._node_order[i]
                    changed.add(index)
                    # A fanout tap's noise lives on the *target* step but
                    # depends on the source's word length, rounding and
                    # edge entries (signature components 0, 1 and 4): a
                    # change to any of them marks the tapped targets, so
                    # a one-edge edit dirties exactly the target's cone
                    # while the source step's own value stays cached.
                    if (was[0], was[1], was[4]) != (now[0], now[1], now[4]):
                        source = self.steps[index].name
                        targets = ({t for t, _ in was[4]}
                                   | {t for t, _ in now[4]})
                        for target in targets:
                            changed.add(self._resolve_edge(source,
                                                           target)[0])
            else:
                changed = set(range(num_steps))
            self._quantization_signature = signature
        if not changed:
            return False
        stamped = []
        for index in sorted(changed):
            step = self.steps[index]
            spec = step.node.quantization
            step.quantizer = spec.quantizer() if spec.enabled else None
            own = step.node.generated_noise()
            step.noise = own if (own.variance > 0.0
                                 or own.mean != 0.0) else None
            step.edge_taps = self._build_edge_taps(step)
            # The local evaluation signature is what a step contributes to
            # an analytical walk beyond its inputs: coefficient state,
            # effective coefficient precision, own noise moments, and the
            # taps on its incoming edges.  Spec edits that leave it
            # untouched (e.g. a rounding-mode change on a disabled
            # quantizer, or an integer-width change — overflow is NONE,
            # so values never change) rebuild the quantizer but do not
            # dirty the analytical caches.
            local = (_node_coefficient_state(step.node),
                     self._coeff_key(step),
                     None if step.noise is None
                     else (step.noise.mean, step.noise.variance),
                     _taps_signature(step.edge_taps))
            if local != self._local_signatures[index]:
                self._local_signatures[index] = local
                stamped.append(index)
        self.noise_steps = tuple(step for step in self.steps
                                 if step.noise is not None)
        if stamped:
            self._epoch += 1
            self._step_epochs[stamped] = self._epoch
        return True

    def requantize(self, assignment: dict[str, int | None],
                   allow_enable: bool = False) -> None:
        """Update fractional word lengths in place and refresh the plan.

        ``assignment`` maps node names — or ``"source->target"`` edge keys
        — to their new fractional bit counts (``None`` disables the
        node's quantizer / removes the fanout tap).  This is the
        sanctioned mutation path of the word-length optimizer's inner
        loop: the schedule and the frequency-response cache are reused
        across search iterations.

        Assigning bits to a node whose spec is disabled
        (``fractional_bits=None``) would silently *enable* quantization
        with a default ROUND spec; that is rejected with a ValueError
        naming the node unless ``allow_enable=True`` (the batched
        evaluators opt in because their configuration stacks legitimately
        toggle quantization per config).
        """
        with span("plan.requantize", nodes=len(assignment)):
            for name, bits in assignment.items():
                if name in self.graph.nodes:
                    node = self.graph.node(name)
                    spec = node.quantization
                    if (bits is not None and not spec.enabled
                            and not allow_enable):
                        raise ValueError(
                            f"node {name!r} is not quantized; assigning "
                            f"{bits} fractional bits would silently enable "
                            "quantization with a default ROUND spec — pass "
                            "allow_enable=True to opt in")
                    node.quantization = spec.with_fractional_bits(bits)
                else:
                    source, target = parse_edge_key(name)
                    self._resolve_edge(source, target)
                    node = self.graph.node(source)
                    node.quantization = \
                        node.quantization.with_edge_fractional_bits(target,
                                                                    bits)
            self.refresh()

    def _resolve_edge(self, source: str, target: str) -> tuple[int, int]:
        """(target step index, input port) of the unique ``source->target``
        edge; rejects unknown and ambiguous (multi-port) pairs."""
        slots = self._edge_index.get((source, target))
        if not slots:
            raise ValueError(
                f"no edge {source!r} -> {target!r} in graph "
                f"{self.graph.name!r}")
        if len(slots) > 1:
            raise ValueError(
                f"edge {source!r} -> {target!r} is ambiguous: the pair is "
                f"wired on ports {sorted(port for _, port in slots)}; "
                "per-edge word lengths need a unique edge per node pair")
        return slots[0]

    def _build_edge_taps(self, step: PlanStep) -> tuple | None:
        """Incoming :class:`EdgeTap` tuple of one step (``None`` if none)."""
        taps = None
        for port, predecessor in enumerate(step.predecessors):
            source_step = self.steps[predecessor]
            spec = source_step.node.quantization
            if not spec.edge_fractional_bits:
                continue
            bits = spec.edge_bits_for(step.name)
            if bits is None:
                continue
            self._resolve_edge(source_step.name, step.name)
            if taps is None:
                taps = [None] * len(step.predecessors)
            stats = spec.edge_noise_stats(bits)
            taps[port] = EdgeTap(
                key=f"{source_step.name}->{step.name}",
                bits=bits,
                rounding=spec.rounding,
                input_bits=spec.fractional_bits,
                quantizer=spec.edge_quantizer(bits),
                noise=stats if (stats.variance > 0.0
                                or stats.mean != 0.0) else None,
            )
        return tuple(taps) if taps is not None else None

    def active_edge_taps(self) -> list[tuple[PlanStep, int, EdgeTap]]:
        """``(target step, port, tap)`` triples of noise-injecting taps."""
        result = []
        for step in self.steps:
            if step.edge_taps is None:
                continue
            for port, tap in enumerate(step.edge_taps):
                if tap is not None and tap.noise is not None:
                    result.append((step, port, tap))
        return result

    @contextmanager
    def preserve_quantization(self):
        """Context manager restoring every node's spec on exit.

        Used by the batched evaluations that temporarily requantize the
        plan (group representatives, per-config fixed-point runs) and must
        leave the caller's quantization state untouched.
        """
        saved = {name: node.quantization
                 for name, node in self.graph.nodes.items()}
        try:
            yield self
        finally:
            for name, spec in saved.items():
                self.graph.node(name).quantization = spec
            self.refresh()

    # ------------------------------------------------------------------
    # Dirty tracking (pull-based consumers)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotonic counter of refreshes that changed some step.

        Pull-based consumers snapshot this after syncing and pass the
        snapshot to :meth:`steps_dirty_since` on the next pull.
        """
        return self._epoch

    def steps_dirty_since(self, epoch: int) -> np.ndarray:
        """Indices of steps whose local signature changed after ``epoch``.

        Call :meth:`refresh` first (or go through a path that does, such
        as :meth:`requantize`) so pending in-place spec or coefficient
        mutations are folded into the epoch counters.
        """
        return np.nonzero(self._step_epochs > epoch)[0]

    def downstream_cone(self, indices) -> list[int]:
        """Step indices reachable from ``indices``, seeds included.

        The result is sorted, and therefore in topological order: it is
        exactly the re-evaluation schedule for an edit at the seed steps,
        everything outside it provably unaffected.
        """
        seen = {int(index) for index in indices}
        frontier = list(seen)
        while frontier:
            for successor in self._successors[frontier.pop()]:
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return sorted(seen)

    def coefficient_fingerprint(self) -> tuple:
        """Hashable fingerprint of the plan's transfer behaviour.

        Covers everything the symbolic transfer functions and
        double-precision reference runs depend on: the coefficient state
        of every node plus its effective coefficient precision.  Two plan
        states with equal fingerprints have bit-identical path functions
        and reference simulations — the cache key of the flat method's
        path-function memo and the simulation method's reference-run memo.
        Call :meth:`refresh` first so pending mutations are folded in.
        """
        return (self._coefficient_signature,
                tuple(self._coeff_key(step) for step in self.steps))

    def _coeff_key(self, step: PlanStep):
        spec = step.node.quantization
        return spec.coeff_bits if spec.enabled else None

    def coeff_key_for_bits(self, step: PlanStep, bits: int | None):
        """Effective coefficient precision for a hypothetical word length.

        Mirrors :attr:`QuantizationSpec.coeff_bits` after
        ``with_fractional_bits(bits)``: ``None`` when quantization would be
        disabled, the pinned ``coefficient_fractional_bits`` when set, the
        data precision otherwise.
        """
        if bits is None:
            return None
        spec = step.node.quantization
        if spec.coefficient_fractional_bits is not None:
            return spec.coefficient_fractional_bits
        return bits

    def _compute_with_bits(self, step: PlanStep, bits: int | None, compute):
        """Evaluate ``compute(node)`` as if the step had ``bits`` data bits.

        The node's spec is swapped for the duration of the call and always
        restored, so the plan's signatures stay consistent.  When ``bits``
        already is the live word length the node is used as-is.
        """
        node = step.node
        spec = node.quantization
        if spec.fractional_bits == bits:
            return compute(node)
        node.quantization = spec.with_fractional_bits(bits)
        try:
            return compute(node)
        finally:
            node.quantization = spec

    # ------------------------------------------------------------------
    # Memoized per-node transfer functions / responses
    # ------------------------------------------------------------------
    def block_tf_for_bits(self, step: PlanStep,
                          bits: int | None) -> TransferFunction:
        """Effective transfer function at a hypothetical word length."""
        key = (step.index, "block", self.coeff_key_for_bits(step, bits))
        tf = self._tf_cache.get(key)
        if tf is None:
            tf = self._compute_with_bits(
                step, bits, lambda node: node._effective_transfer_function())
            self._tf_cache[key] = tf
        return tf

    def shaping_tf_for_bits(self, step: PlanStep,
                            bits: int | None) -> TransferFunction:
        """Noise-shaping function at a hypothetical word length."""
        key = (step.index, "shaping", self.coeff_key_for_bits(step, bits))
        tf = self._tf_cache.get(key)
        if tf is None:
            tf = self._compute_with_bits(
                step, bits, lambda node: node.noise_shaping_function())
            self._tf_cache[key] = tf
        return tf

    def block_tf(self, step: PlanStep) -> TransferFunction:
        """Effective (coefficient-quantized) transfer function of a block."""
        return self.block_tf_for_bits(step,
                                      step.node.quantization.fractional_bits)

    def shaping_tf(self, step: PlanStep) -> TransferFunction:
        """Noise-shaping function of an IIR block's internal quantizer."""
        return self.shaping_tf_for_bits(step,
                                        step.node.quantization.fractional_bits)

    def block_response_for_bits(self, step: PlanStep, bits: int | None,
                                n_bins: int) -> np.ndarray:
        """Block frequency response at a hypothetical word length."""
        key = (step.index, "block", self.coeff_key_for_bits(step, bits),
               n_bins)
        response = self._response_cache.get(key)
        if response is None:
            response = self.block_tf_for_bits(step, bits).frequency_response(
                n_bins)
            self._response_cache[key] = response
        return response

    def shaping_response_for_bits(self, step: PlanStep, bits: int | None,
                                  n_bins: int) -> np.ndarray:
        """Noise-shaping response at a hypothetical word length."""
        key = (step.index, "shaping", self.coeff_key_for_bits(step, bits),
               n_bins)
        response = self._response_cache.get(key)
        if response is None:
            response = self.shaping_tf_for_bits(step, bits).frequency_response(
                n_bins)
            self._response_cache[key] = response
        return response

    def block_response(self, step: PlanStep, n_bins: int) -> np.ndarray:
        """Complex frequency response of a block on ``n_bins`` bins."""
        return self.block_response_for_bits(
            step, step.node.quantization.fractional_bits, n_bins)

    def shaping_response(self, step: PlanStep, n_bins: int) -> np.ndarray:
        """Noise-shaping frequency response of an IIR block."""
        return self.shaping_response_for_bits(
            step, step.node.quantization.fractional_bits, n_bins)

    def block_gains_for_bits(self, step: PlanStep,
                             bits: int | None) -> tuple[float, float]:
        """``(energy, coefficient_sum)`` at a hypothetical word length."""
        key = (step.index, "block", self.coeff_key_for_bits(step, bits))
        gains = self._gain_cache.get(key)
        if gains is None:
            tf = self.block_tf_for_bits(step, bits)
            gains = (tf.energy(), tf.coefficient_sum())
            self._gain_cache[key] = gains
        return gains

    def shaping_gains_for_bits(self, step: PlanStep,
                               bits: int | None) -> tuple[float, float]:
        """Noise-shaping ``(energy, coefficient_sum)`` at a word length."""
        key = (step.index, "shaping", self.coeff_key_for_bits(step, bits))
        gains = self._gain_cache.get(key)
        if gains is None:
            tf = self.shaping_tf_for_bits(step, bits)
            gains = (tf.energy(), tf.coefficient_sum())
            self._gain_cache[key] = gains
        return gains

    def noise_for_bits(self, step: PlanStep, bits: int | None) -> NoiseStats:
        """Moments the step would generate with ``bits`` fractional bits."""
        if bits == step.node.quantization.fractional_bits:
            return step.noise if step.noise is not None else NoiseStats(0.0, 0.0)
        return self._compute_with_bits(
            step, bits, lambda node: node.generated_noise())

    def config_stack(self, assignments) -> "ConfigStack":
        """Resolve a stack of word-length assignments against this plan.

        ``assignments`` is a sequence of ``{node name: fractional bits}``
        mappings (``None`` disables quantization; unnamed nodes keep their
        current word length).  The returned :class:`ConfigStack` is what
        the batched analytical walks consume.  Pending in-place spec or
        coefficient mutations are folded in first.
        """
        self.refresh()
        return ConfigStack(self, assignments)

    # ------------------------------------------------------------------
    # Own-noise injection helper (used by the tracked analytical walk)
    # ------------------------------------------------------------------
    def shaped_noise_tracked(self, step: PlanStep,
                             n_bins: int) -> TrackedSpectrum:
        """Tracked spectrum of a step's own noise at the node output."""
        tracked = TrackedSpectrum.from_source(step.name, step.noise, n_bins)
        if isinstance(step.node, IirNode):
            tracked = tracked.filtered(self.shaping_response(step, n_bins))
        return tracked

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    def resolve_output(self, output: str | None) -> str:
        """Name of the output node to read (validated)."""
        if output is not None:
            if output not in self.output_names:
                raise ValueError(
                    f"{output!r} is not an output node of the graph")
            return output
        if len(self.output_names) != 1:
            raise ValueError(
                f"graph has {len(self.output_names)} outputs; specify which "
                "one to evaluate")
        return self.output_names[0]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _stimulus_slots(self, inputs: dict) -> list:
        missing = set(self.input_names) - set(inputs)
        if missing:
            raise ValueError(
                f"missing stimulus for input node(s) {sorted(missing)}")
        slots = [np.asarray(inputs[name], dtype=float)
                 for name in self.input_names]
        for name, slot in zip(self.input_names, slots):
            # A scalar or an empty record has nothing to measure: it would
            # yield the power of one sample, or fail deep inside a node.
            if slot.ndim == 0 or slot.size == 0:
                raise ValueError(
                    f"stimulus for input node {name!r} has shape "
                    f"{slot.shape}; it needs at least one sample (and at "
                    "least one trial when batched)")
            # One NaN or inf sample would turn every measured power and
            # Ed into NaN (or a plausible-looking wrong value) silently.
            # min/max propagate NaN and reach +-inf, so they catch both
            # without a stimulus-sized mask (which measurably raises the
            # peak RSS of long stimuli).
            if not (np.isfinite(slot.min()) and np.isfinite(slot.max())):
                raise ValueError(
                    f"stimulus for input node {name!r} holds NaN or "
                    "infinite samples")
        # Batched stimuli must agree on the trial axes: a 1-D stimulus is
        # broadcast to every trial, but two stacked stimuli with
        # different leading shapes would silently mis-pair trials inside
        # the vectorized nodes.
        leading = {slot.shape[:-1] for slot in slots if slot.ndim > 1}
        if len(leading) > 1:
            raise ValueError(
                "batched stimuli disagree on the trial axes: "
                f"{sorted(leading)}")
        return slots

    @staticmethod
    def _simulate(node: Node, node_inputs: list, fixed: bool) -> np.ndarray:
        # Every node type vectorizes over leading trial axes (the batch
        # contract of repro.sfg.nodes.Node), so there is no row-wise
        # fallback: one call runs the whole stack.
        compute = node.simulate_fixed if fixed else node.simulate
        return compute(node_inputs)

    def run(self, inputs: dict, mode: str = "double",
            keep_signals: bool = False) -> ExecutionResult:
        """Execute the schedule on one stimulus.

        This is the only way a graph is executed: both precision modes,
        both backends and the batched trial axis walk the schedule and
        call each node's ``simulate`` or ``simulate_fixed``; the
        ``reference`` backend only swaps the kernels inside the nodes.

        Parameters
        ----------
        inputs:
            Mapping from input-node name to its sample vector; a 2-D array
            of shape ``(trials, samples)`` runs every trial in one
            vectorized batch.
        mode:
            ``double`` for the infinite-precision reference or ``fixed``
            for bit-true fixed-point execution.
        keep_signals:
            Whether to retain every intermediate node output in the
            result (useful for debugging, range measurement and
            block-level validation tests).
        """
        if mode not in ("double", "fixed"):
            raise ValueError(f"unknown execution mode {mode!r}")
        # Pick up quantization-spec mutations made since the last run (a
        # cheap signature comparison when nothing changed).
        self.refresh()
        fixed = mode == "fixed"
        stimulus = dict(zip(self.input_names, self._stimulus_slots(inputs)))
        metric_inc("plan.runs", mode=mode)
        with span("plan.run", mode=mode):
            signals = [None] * len(self.steps)
            for step in self.steps:
                if isinstance(step.node, InputNode):
                    value = stimulus[step.name]
                    if fixed and step.quantizer is not None:
                        value = step.quantizer.quantize(value)
                    signals[step.index] = value
                    continue
                node_inputs = [signals[i] for i in step.predecessors]
                if fixed and step.edge_taps is not None:
                    node_inputs = [
                        tap.quantizer.quantize(value)
                        if tap is not None else value
                        for tap, value in zip(step.edge_taps, node_inputs)]
                signals[step.index] = self._simulate(step.node, node_inputs,
                                                     fixed)
        outputs = {name: signals[index]
                   for name, index in zip(self.output_names,
                                          self.output_indices)}
        return ExecutionResult(
            outputs=outputs,
            signals={step.name: signals[step.index] for step in self.steps}
            if keep_signals else {},
        )

    def run_pair(self, inputs: dict, keep_signals: bool = False
                 ) -> tuple[ExecutionResult, ExecutionResult]:
        """``(reference, fixed)``: a ``double`` run, then a ``fixed`` run."""
        return (self.run(inputs, mode="double", keep_signals=keep_signals),
                self.run(inputs, mode="fixed", keep_signals=keep_signals))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CompiledPlan({self.graph.name!r}, steps={len(self.steps)}, "
                f"noise_sources={len(self.noise_steps)})")


# ----------------------------------------------------------------------
# Configuration stacks (the batched-evaluation axis)
# ----------------------------------------------------------------------
class ConfigStack:
    """A stack of word-length assignments resolved against one plan.

    The batched analytical walks evaluate ``K`` word-length configurations
    of the *same* graph structure in a single pass: noise-source moments
    gain a leading config axis, and per-node frequency responses are
    shared across the configs that agree on the node's effective
    coefficient precision (they always do when
    ``coefficient_fractional_bits`` is pinned; otherwise each distinct
    precision gets its own response row, served from the plan's memoized
    cache).

    The stack is stored *sparsely*, as each config's deviations from the
    plan's live quantization, so building it costs O(assignment keys)
    rather than O(K x steps) — a round of one-key optimizer candidates
    stays cheap on a wide graph.  A config's *cone* is the downstream
    cone of the steps where its own or incoming-tap word lengths differ
    from the live plan; outside it the config's walk provably equals the
    live one.  :meth:`cone_rows` indexes those cones per step, and every
    per-step query takes an optional ``rows`` array of config indices
    (default: the whole stack) so the walks ask only for the rows they
    compute.

    Parameters
    ----------
    plan:
        The compiled plan the assignments apply to.
    assignments:
        Sequence of ``{node name: fractional bits}`` mappings; keys may
        also be ``"source->target"`` edge keys assigning per-fanout-branch
        word lengths.  ``None`` disables quantization for that node (or
        removes the tap); names absent from a mapping keep their current
        word length.  The assignments are *resolved* against the plan
        state at construction time — later mutations of the graph's specs
        do not retroactively change the stack.  Construction does not
        refresh the plan: go through :meth:`CompiledPlan.config_stack`
        (or :func:`compile_plan` first) to fold pending mutations in.
    """

    __slots__ = ("plan", "size", "_live_bits", "_live_noise", "_deltas",
                 "_edge_slots", "_edge_ports", "_live_edge_bits",
                 "_edge_deltas", "_seeds", "_rows")

    def __init__(self, plan: CompiledPlan, assignments):
        assignments = list(assignments)
        if not assignments:
            raise ValueError("the configuration stack is empty")
        self.plan = plan
        self.size = len(assignments)
        self._live_bits = tuple(step.node.quantization.fractional_bits
                                for step in plan.steps)
        self._live_noise = tuple(step.noise for step in plan.steps)
        # Live taps join the edge axis so resolved() fully overrides the
        # plan's tap state (a config that omits a live tap's key keeps it,
        # one that maps it to None removes it — exactly the node-default
        # semantics).  Slots are (target step, input port): tap noise is
        # injected where the target consumes the tapped value.
        self._edge_slots: dict[str, tuple[int, int]] = {}
        self._live_edge_bits: dict[tuple[int, int], int] = {}
        for step in plan.steps:
            for port, tap in enumerate(step.edge_taps or ()):
                if tap is not None:
                    self._edge_slots[tap.key] = (step.index, port)
                    self._live_edge_bits[(step.index, port)] = tap.bits
        # Deviations from the live plan: {step or slot: {config: bits}},
        # and per config the seed steps of its cone.
        self._deltas: dict[int, dict] = {}
        self._edge_deltas: dict[tuple[int, int], dict] = {}
        self._seeds: list[list[int]] = []
        unknown = set()
        for config, assignment in enumerate(assignments):
            seeds = []
            for key, bits in assignment.items():
                index = plan.index_of.get(key)
                if index is not None:
                    if bits != self._live_bits[index]:
                        self._deltas.setdefault(index, {})[config] = bits
                        seeds.append(index)
                    continue
                slot = self._edge_slots.get(key)
                if slot is None:
                    try:
                        slot = plan._resolve_edge(*parse_edge_key(key))
                    except ValueError:
                        unknown.add(key)
                        continue
                    self._edge_slots[key] = slot
                if bits != self._live_edge_bits.get(slot):
                    self._edge_deltas.setdefault(slot, {})[config] = bits
                    seeds.append(slot[0])
            self._seeds.append(seeds)
        if unknown:
            raise ValueError(
                f"assignment names unknown to the graph: {sorted(unknown)}")
        self._edge_ports: dict[int, dict[int, str]] = {}
        for key in sorted(self._edge_slots):
            target, port = self._edge_slots[key]
            self._edge_ports.setdefault(target, {})[port] = key
        self._rows = None

    # ------------------------------------------------------------------
    # Per-config cones
    # ------------------------------------------------------------------
    def cone_rows(self) -> list:
        """Per-step row selections of the row-sparse batched walk.

        Entry ``i`` is the sorted ``intp`` array of the configs whose cone
        contains step ``i``, or ``None`` when no config's does.  Cones are
        downstream-closed, so a step's rows include the rows of every
        predecessor in the stack.
        """
        if self._rows is None:
            members: list[list[int]] = [[] for _ in self.plan.steps]
            cones: dict[tuple, list[int]] = {}
            for config, seeds in enumerate(self._seeds):
                if not seeds:
                    continue
                key = tuple(seeds)
                cone = cones.get(key)
                if cone is None:
                    cone = cones[key] = self.plan.downstream_cone(key)
                for index in cone:
                    members[index].append(config)
            self._rows = [np.array(configs, dtype=np.intp) if configs
                          else None for configs in members]
        return self._rows

    # ------------------------------------------------------------------
    # Per-step queries
    # ------------------------------------------------------------------
    def _configs(self, rows):
        return range(self.size) if rows is None else rows.tolist()

    def bits(self, step: PlanStep, rows=None) -> tuple:
        """Per-config data-path fractional bits of one step."""
        live = self._live_bits[step.index]
        deltas = self._deltas.get(step.index)
        configs = self._configs(rows)
        if not deltas:
            return (live,) * len(configs)
        return tuple(deltas.get(config, live) for config in configs)

    def noise(self, step: PlanStep, rows=None):
        """Per-config own-noise moments ``(means, variances)`` of one step.

        ``None`` when no selected config generates noise at this step;
        configs with a silent quantizer carry exact zeros.
        """
        if step.index not in self._deltas:
            live = self._live_noise[step.index]
            if live is None:
                return None
            count = self.size if rows is None else len(rows)
            return np.full(count, live.mean), np.full(count, live.variance)
        per_bits: dict = {}
        moments = []
        for bits in self.bits(step, rows):
            stats = per_bits.get(bits)
            if stats is None:
                stats = per_bits[bits] = self.plan.noise_for_bits(step,
                                                                  bits)
            moments.append(stats)
        return _noisy_moments(moments)

    def edge_noise(self, step: PlanStep, rows=None):
        """Per-config tap-noise moments of one step's incoming edges.

        ``None`` when no selected config injects tap noise at this step;
        otherwise ``{input port: (means, variances)}`` with exact zeros
        for silent configs.  A tap's noise sees the source's word length
        *in the same config* as its input grid, mirroring the scalar
        :class:`EdgeTap` exactly.
        """
        ports = self._edge_ports.get(step.index)
        if not ports:
            return None
        result = None
        configs = self._configs(rows)
        for port in ports:
            slot = (step.index, port)
            source = self.plan.steps[step.predecessors[port]]
            rounding = source.node.quantization.rounding
            live = self._live_edge_bits.get(slot)
            deltas = self._edge_deltas.get(slot, {})
            per_pair: dict = {}
            moments = []
            for config, source_bits in zip(configs, self.bits(source, rows)):
                bits = deltas.get(config, live)
                pair = (bits, source_bits)
                stats = per_pair.get(pair)
                if stats is None:
                    stats = per_pair[pair] = (
                        NoiseStats(0.0, 0.0) if bits is None else
                        quantization_noise_stats(
                            int(bits), rounding=rounding,
                            input_fractional_bits=source_bits))
                moments.append(stats)
            noise = _noisy_moments(moments)
            if noise is not None:
                result = result or {}
                result[port] = noise
        return result

    def edge_noise_sources(self) -> dict[str, tuple]:
        """``{edge key: (means, variances)}`` of taps noisy in some config."""
        result = {}
        for target, ports in self._edge_ports.items():
            noise = self.edge_noise(self.plan.steps[target]) or {}
            for port, arrays in noise.items():
                result[ports[port]] = arrays
        return result

    def resolved(self, config: int) -> dict:
        """Full ``{name: bits}`` assignment of one config (edge keys
        included), suitable for ``plan.requantize(...,
        allow_enable=True)`` to reproduce the config's complete
        quantization state."""
        result = {}
        for step in self.plan.steps:
            live = self._live_bits[step.index]
            bits = self._deltas.get(step.index, {}).get(config, live)
            if live is not None or bits is not None:
                result[step.name] = bits
        for key in sorted(self._edge_slots):
            slot = self._edge_slots[key]
            result[key] = self._edge_deltas.get(slot, {}).get(
                config, self._live_edge_bits.get(slot))
        return result

    def coefficient_signatures(self) -> list[tuple]:
        """Per-config tuples of effective coefficient precisions.

        Configs with equal signatures share every frequency response and
        transfer function — the grouping key used by the batched flat
        method and the batched simulation (which share reference runs
        within a group).  Only nodes whose behaviour actually quantizes
        coefficients (gains, FIR taps, IIR coefficients) contribute;
        coefficient-free nodes would otherwise split groups that share
        identical transfer behaviour.
        """
        columns = [tuple(self.plan.coeff_key_for_bits(step, bits)
                         for bits in self.bits(step))
                   for step in self._coefficient_steps()]
        return list(zip(*columns)) if columns else [()] * self.size

    def live_coefficient_signature(self) -> tuple:
        """The coefficient signature of the plan's live configuration.

        A config group with this signature shares the live plan's
        transfer behaviour, so it can be evaluated on the plan as it
        stands, without requantizing it.
        """
        return tuple(self.plan.coeff_key_for_bits(
                         step, self._live_bits[step.index])
                     for step in self._coefficient_steps())

    def _coefficient_steps(self):
        return (step for step in self.plan.steps
                if isinstance(step.node, (GainNode, FirNode, IirNode)))

    def coefficient_groups(self) -> list[list[int]]:
        """Config indices grouped by equal coefficient signature.

        Within one group every transfer function, frequency response and
        double-precision reference behaviour is shared; only the noise
        moments (and the fixed-point data paths) differ per member.
        """
        groups: dict[tuple, list[int]] = {}
        for config, signature in enumerate(self.coefficient_signatures()):
            groups.setdefault(signature, []).append(config)
        return list(groups.values())

    # ------------------------------------------------------------------
    # Per-step responses / gains (scalar when shared, stacked otherwise)
    # ------------------------------------------------------------------
    def _stacked(self, step: PlanStep, lookup, rows):
        if step.index not in self._deltas:
            return lookup(self._live_bits[step.index])
        bits = self.bits(step, rows)
        keys = {self.plan.coeff_key_for_bits(step, b) for b in bits}
        if len(keys) == 1:
            return lookup(bits[0])
        return [lookup(b) for b in bits]

    def block_response(self, step: PlanStep, n_bins: int,
                       rows=None) -> np.ndarray:
        """Block response: ``(n_bins,)`` when shared, one row per config
        otherwise."""
        responses = self._stacked(
            step, lambda b: self.plan.block_response_for_bits(step, b, n_bins),
            rows)
        return (responses if isinstance(responses, np.ndarray)
                else np.stack(responses))

    def shaping_response(self, step: PlanStep, n_bins: int,
                         rows=None) -> np.ndarray:
        """Noise-shaping response, shared or per-config stacked."""
        responses = self._stacked(
            step,
            lambda b: self.plan.shaping_response_for_bits(step, b, n_bins),
            rows)
        return (responses if isinstance(responses, np.ndarray)
                else np.stack(responses))

    def block_gains(self, step: PlanStep, rows=None):
        """``(energy, dc)`` scalars when shared, per-config arrays else."""
        return _stacked_gains(self._stacked(
            step, lambda b: self.plan.block_gains_for_bits(step, b), rows))

    def shaping_gains(self, step: PlanStep, rows=None):
        """Noise-shaping ``(energy, dc)``, shared or per-config arrays."""
        return _stacked_gains(self._stacked(
            step, lambda b: self.plan.shaping_gains_for_bits(step, b), rows))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ConfigStack(size={self.size}, "
                f"plan={self.plan.graph.name!r})")


def _noisy_moments(moments: list[NoiseStats]):
    """``(means, variances)`` arrays of per-config moments, ``None`` when
    every config is silent."""
    means = np.array([stats.mean for stats in moments], dtype=float)
    variances = np.array([stats.variance for stats in moments], dtype=float)
    if not np.any((variances > 0.0) | (means != 0.0)):
        return None
    return means, variances


def _stacked_gains(pairs):
    if isinstance(pairs, tuple):
        return pairs
    return (np.array([pair[0] for pair in pairs]),
            np.array([pair[1] for pair in pairs]))


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
# One plan is cached per graph, stored on the graph object itself: the
# graph and its plan form an ordinary reference cycle that the garbage
# collector reclaims together, so throwaway graphs (parameter sweeps,
# per-request deserialization) do not accumulate plans for the process
# lifetime.
_PLAN_ATTRIBUTE = "_compiled_plan"


def structure_signature(graph: SignalFlowGraph) -> tuple:
    """Cheap fingerprint of the graph structure (nodes and wiring).

    Node identity (not equality) is part of the signature, so replacing a
    node object — even with an identical one — invalidates cached plans.
    """
    return (tuple(id(node) for node in graph.nodes.values()),
            tuple(graph.edges))


def quantization_signature(graph: SignalFlowGraph) -> tuple:
    """Cheap fingerprint of every node's quantization specification.

    Component order matters to :meth:`CompiledPlan.refresh`, which
    decomposes a per-node diff: indices 0 (word length), 1 (rounding) and
    4 (edge entries) also dirty the node's tapped fanout targets, index 5
    (integer width) rebuilds the quantizer without dirtying analytical
    caches (overflow is NONE, so values never change).
    """
    return tuple((spec.fractional_bits, spec.rounding,
                  spec.coefficient_fractional_bits,
                  spec.input_fractional_bits,
                  spec.edge_fractional_bits,
                  spec.integer_bits)
                 for spec in (node.quantization
                              for node in graph.nodes.values()))


def _node_coefficient_state(node: Node) -> tuple:
    if isinstance(node, GainNode):
        return (node.gain,)
    if isinstance(node, IirNode):
        return (node.filter.b.tobytes(), node.filter.a.tobytes())
    if isinstance(node, FirNode):
        return (node.filter.taps.tobytes(),)
    if isinstance(node, LtiNode):
        tf = node.transfer_function()
        return (tf.b.tobytes(), tf.a.tobytes())
    if isinstance(node, AddNode):
        return tuple(node.signs)
    if isinstance(node, DelayNode):
        return (node.delay,)
    if isinstance(node, DownsampleNode):
        return (node.factor, node.phase)
    if isinstance(node, UpsampleNode):
        return (node.factor,)
    return ()


def coefficient_signature(graph: SignalFlowGraph) -> tuple:
    """Fingerprint of every node's behavioural coefficients.

    Covers the mutable numeric state a node's transfer behaviour depends
    on (gains, taps, signs, delays, resampling factors), so a plan can
    detect in-place coefficient edits and drop its memoized responses.
    """
    return tuple(_node_coefficient_state(node)
                 for node in graph.nodes.values())


def compile_plan(system: SignalFlowGraph | CompiledPlan) -> CompiledPlan:
    """Return a (cached) compiled plan for ``system``.

    Passing an existing :class:`CompiledPlan` returns it unchanged.  For a
    :class:`SignalFlowGraph`, one plan is cached per graph object: the
    cached plan is reused while the structure is unchanged (a cheap
    signature comparison), transparently refreshed when only quantization
    specs changed, and recompiled when the structure changed.
    """
    if isinstance(system, CompiledPlan):
        # Keep direct plan handles honest too: pick up spec / coefficient
        # mutations made on the underlying graph since the last use.
        system.refresh()
        return system
    if not isinstance(system, SignalFlowGraph):
        raise TypeError(
            f"expected a SignalFlowGraph or CompiledPlan, got "
            f"{type(system).__name__}")
    plan = getattr(system, _PLAN_ATTRIBUTE, None)
    if plan is not None and plan._structure_signature == structure_signature(system):
        plan.refresh()
        return plan
    with span("plan.compile", graph=system.name) as compile_span:
        plan = CompiledPlan(system)
        compile_span.set(steps=len(plan.steps),
                         noise_sources=len(plan.noise_steps))
    setattr(system, _PLAN_ATTRIBUTE, plan)
    return plan

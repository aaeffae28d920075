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
* per-node transfer behaviour of each kind (the block function and the
  IIR noise shaping: transfer functions, frequency responses, ``|H|^2``
  and impulse-response gains) is memoized in one content cache — keyed
  by quantity, node type, coefficient state, kind, effective
  coefficient precision and bin count — so nodes of one design share an
  entry and re-quantizing the data path never invalidates one.

Re-quantization — the word-length optimizer's inner loop — is supported in
place through :meth:`CompiledPlan.requantize`; in-place *coefficient*
edits (assigning to ``GainNode.gain`` and the like) are detected by
:meth:`CompiledPlan.refresh`, which records the edited steps' new
coefficient state (so their responses are looked up under new keys).
Either way the plan records which steps it rebuilt, at a new plan epoch
(:meth:`CompiledPlan.steps_rebuilt_since`), so the pull-based analytical
engines (:mod:`repro.analysis._engine`) recompute only the rebuilt
steps' downstream cone instead of re-walking the whole graph; any *structural*
change to the graph (adding / removing nodes or edges, swapping node
objects) requires a new plan, which :func:`compile_plan` detects
automatically.

On top of single-configuration reuse, :class:`ConfigStack` resolves a
whole *stack* of word-length assignments against one plan — per-step
noise moments with a leading config axis, responses shared per effective
coefficient precision — which is what the configuration-batched
analytical walks (``evaluate_*_batch``) consume.  Those walks run the
schedule level by level: :attr:`CompiledPlan.levels` groups the steps of
one topological depth that run one rule on one PSD grid
(:class:`StepGroup`), and the stack answers its queries for the
flattened ``(step, config)`` rows of a whole group (:class:`StepRows`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from math import gcd
from operator import methodcaller

import numpy as np

from repro.fixedpoint.noise_model import NoiseStats, quantization_noise_stats
from repro.lti.transfer_function import TransferFunction
from repro.obs import metric_inc, span
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
    quantizer:
        Pre-constructed quantizer applied to the tapped value in fixed
        point; it inherits the source spec's rounding mode.
    noise:
        PQN moments the tap injects, or ``None`` when the tap is a no-op
        (at least as fine as the source grid — then the quantizer is
        numerically the identity and the noise is exactly zero).  The
        source's own output word length is the grid the tap input lives
        on, so it decides these moments.
    """

    __slots__ = ("key", "bits", "quantizer", "noise")

    def __init__(self, key: str, bits: int, quantizer,
                 noise: NoiseStats | None):
        self.key = key
        self.bits = bits
        self.quantizer = quantizer
        self.noise = noise

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeTap({self.key!r}, bits={self.bits})"


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
        The live node object: the source of truth for its simulation,
        transfer functions and noise generation.  How noise crosses it is
        the analytical engine's one step rule.
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


class StepGroup:
    """Steps of one topological level that run one propagation rule.

    Members share their depth in the schedule (so none feeds another),
    their node type and arity, the parameters the rule reads (adder
    signs, resampling factors) and the sample rate of their output and
    of every input port, so their PSDs live on one bin grid.  A batched
    walk applies the rule once to the flattened rows of a whole group.
    Like a :class:`PlanStep` — a group of one — it exposes the
    ``node``, ``is_source`` and ``name`` the rule reads.

    Attributes
    ----------
    steps:
        The member steps, in schedule order.
    indices:
        Their step indices, an ``intp`` array.
    predecessors:
        Per input port, the ``intp`` array of the members' predecessor
        step indices.
    node:
        The first member's node: the rule's node type and parameters.
    is_source:
        Whether the members have no predecessors.
    name:
        A label: the member's name for a group of one, else the first
        and last members' names.
    """

    __slots__ = ("steps", "indices", "predecessors", "node", "is_source",
                 "name")

    def __init__(self, steps):
        self.steps = tuple(steps)
        self.indices = np.array([step.index for step in self.steps],
                                dtype=np.intp)
        self.predecessors = tuple(
            np.array(port, dtype=np.intp)
            for port in zip(*(step.predecessors for step in self.steps)))
        first, last = self.steps[0], self.steps[-1]
        self.node = first.node
        self.is_source = first.is_source
        self.name = (first.name if first is last
                     else f"{first.name}..{last.name}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StepGroup({self.name!r}, steps={len(self.steps)})"


class StepRows:
    """Rows of a stacked walk: row ``r`` is config ``configs[r]`` at step
    ``steps[r]`` (both ``intp`` arrays).

    A batched walk passes the rows of a whole :class:`StepGroup`, sorted
    by step then config; a ``K = 1`` walk passes row 0 of one step.
    ``step`` is the index of the one step every row is at (``None`` when
    the rows span several), which lets the queries answer a step without
    deltas at once.
    """

    __slots__ = ("steps", "configs", "size", "step")

    def __init__(self, steps: np.ndarray, configs: np.ndarray,
                 step: int | None = None):
        self.steps = steps
        self.configs = configs
        self.size = len(configs)
        self.step = step

    def pairs(self):
        """``(step index, config)`` of each row, as Python ints."""
        return zip(self.steps.tolist(), self.configs.tolist())


#: How a node computes its transfer function of each kind: the block
#: function (coefficients rounded at the spec's precision) and the IIR
#: noise-shaping function of its internal quantizer.
_TRANSFER_FUNCTIONS = {
    "block": methodcaller("_effective_transfer_function"),
    "shaping": methodcaller("noise_shaping_function"),
}


def _rule_parameters(node: Node) -> tuple:
    """What the propagation rule reads from a node besides its type."""
    if isinstance(node, AddNode):
        return tuple(node.signs)
    if isinstance(node, (DownsampleNode, UpsampleNode)):
        return (node.factor,)
    return ()


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
        # The steps whose nodes round coefficients (gains, FIR taps, IIR
        # coefficients): no other node reads its coefficient precision.
        self.coefficient_steps: tuple[PlanStep, ...] = tuple(
            step for step in steps
            if isinstance(step.node, (GainNode, FirNode, IirNode)))
        self.index_of = index_of
        self.input_names: tuple[str, ...] = tuple(graph.input_names())
        self.output_names: tuple[str, ...] = tuple(graph.output_names())
        self.output_indices: tuple[int, ...] = tuple(
            index_of[name] for name in self.output_names)
        # Downstream-cone index: integer successor adjacency, the dual of
        # each step's predecessor tuple.  The incremental engines use it to
        # bound what an edit can influence (everything reachable from the
        # rebuilt steps); like the schedule itself it is frozen at compile
        # time because structural edits always produce a new plan.
        successors: list[set[int]] = [set() for _ in steps]
        for step in steps:
            for predecessor in step.predecessors:
                successors[predecessor].add(step.index)
        self._successors: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in successors)
        # Each step's own cone, searched on first use (bounded by the
        # step count): a multi-seed cone is the union of its seeds'.
        self._cones: dict[int, np.ndarray] = {}
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
        # topologically ordered; this maps signature position -> step
        # index, and _positions back.
        self._node_order: tuple[int, ...] = tuple(
            index_of[name] for name in graph.nodes)
        self._positions = [0] * len(steps)
        for position, index in enumerate(self._node_order):
            self._positions[index] = position
        # The one change record of the pull-based evaluation engines: the
        # plan epoch counts refreshes that rebuilt some step, and each
        # step records the epoch of its last rebuild.  Consumers snapshot
        # the epoch and later ask steps_rebuilt_since() what to re-pull.
        self._epoch = 0
        self._rebuild_epochs = np.zeros(len(steps), dtype=np.int64)
        self._structure_signature = structure_signature(graph)
        self._quantization_signature: tuple = ()
        self._coefficient_signature: tuple = ()
        # Transfer behaviour depends only on the node type, its
        # coefficients and their effective precision, so every quantity
        # derived from it is kept in one cache keyed by that content
        # (_cached): nodes of one design share entries, re-quantization
        # looks up other keys, and a coefficient edit looks up new ones
        # while the old entries stay until the plan is dropped.
        self._content_cache: dict[tuple, object] = {}
        # PQN moments per step and data bits: they depend on the step's
        # spec and coefficients, so a rebuild (_rebuild) drops a step's
        # entries whenever it rebuilds that step's noise.
        self._noise_cache: dict[int, dict] = {}
        self.noise_steps: tuple[PlanStep, ...] = ()
        self.levels: tuple[StepGroup, ...] = ()
        # Row 0 of each step: what a K = 1 walk computes there.
        indices = np.arange(len(steps), dtype=np.intp)
        config = np.zeros(1, dtype=np.intp)
        self.unit_rows: tuple[StepRows, ...] = tuple(
            StepRows(indices[i:i + 1], config, i) for i in range(len(steps)))
        self.refresh()

    # ------------------------------------------------------------------
    # Quantization state
    # ------------------------------------------------------------------
    def refresh(self) -> bool:
        """Re-read the quantization specs and coefficients of every node.

        Rebuilds are per step: quantizers and noise moments are rebuilt
        only for the steps whose spec or coefficients actually changed
        since the last refresh (:meth:`_spec_changes`), an in-place
        coefficient change (e.g. assigning to ``GainNode.gain``) records
        the step's new coefficient state, under which its transfer
        functions and frequency responses are then looked up, and the
        rebuild is recorded at a new plan epoch so pull-based consumers
        (:class:`~repro.analysis._engine.NoiseMemo`) can recompute just
        the downstream cone of the rebuilt steps.  Returns whether
        anything was rebuilt.
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
            # Adder signs and resampling factors are coefficients too,
            # and the level groups are keyed by them.
            self.levels = self._level_groups()
            # Generated noise can depend on coefficients too (e.g. the
            # frequency-domain FIR node), so the edited steps join the
            # quantizer/noise rebuild below.
            changed |= edited
        signature = quantization_signature(self.graph)
        previous = self._quantization_signature
        if signature != previous:
            if len(previous) == len(signature) == num_steps:
                changed |= self._spec_changes(
                    (self._node_order[i], was, now)
                    for i, (was, now) in enumerate(zip(previous, signature))
                    if was != now)
            else:
                changed = set(range(num_steps))
            self._quantization_signature = signature
        return self._rebuild(changed)

    def _spec_changes(self, edits) -> set[int]:
        """The steps to rebuild for ``(step index, previous, current)``
        quantization-signature entries of the nodes whose spec changed.

        A fanout tap lives on its *target* step, so the edits rebuild
        what each one reaches and no more: the source step when a field
        other than its edge entries (component 4) changed, a target when
        its own ``(target, bits)`` entry changed, and every tapped target
        when the source's word length or rounding (components 0 and 1,
        which each tap reads) changed.  A one-edge edit thus rebuilds
        exactly the target, and the source's own value stays cached.
        """
        changed = set()
        for index, was, now in edits:
            if was[:4] != now[:4] or was[5:] != now[5:]:
                changed.add(index)
            entries = set(was[4]) ^ set(now[4])
            if was[:2] != now[:2]:
                entries.update(now[4])
            source = self.steps[index].name
            for target, _ in entries:
                changed.add(self._resolve_edge(source, target)[0])
        return changed

    def _rebuild(self, changed: set[int]) -> bool:
        """Rebuild the quantizers, noise and taps of the ``changed``
        steps, and record the rebuild: the epoch moves and becomes the
        steps' rebuild epoch.  Returns whether anything was rebuilt.

        A rebuild is recorded also when it leaves the step's live value
        as it was (a coefficient precision pinned to the live width, a
        rounding change on a silent quantizer): what such an edit changes
        shows at other word lengths, which is what a configuration stack
        and the word-length optimizer's table of uniform-width powers
        read.
        """
        if not changed:
            return False
        self._epoch += 1
        self._rebuild_epochs[list(changed)] = self._epoch
        for index in changed:
            self._noise_cache.pop(index, None)
            step = self.steps[index]
            spec = step.node.quantization
            step.quantizer = spec.quantizer() if spec.enabled else None
            own = step.node.generated_noise()
            step.noise = own if (own.variance > 0.0
                                 or own.mean != 0.0) else None
            step.edge_taps = self._build_edge_taps(step)
        self.noise_steps = tuple(step for step in self.steps
                                 if step.noise is not None)
        return True

    def requantize(self, assignment: dict[str, int | None],
                   allow_enable: bool = False) -> None:
        """Update fractional word lengths in place and rebuild what they
        change.

        ``assignment`` maps node names — or ``"source->target"`` edge keys
        — to their new fractional bit counts (``None`` disables the
        node's quantizer / removes the fanout tap).  This is the
        sanctioned mutation path of the word-length optimizer's inner
        loop: the schedule and the content cache of transfer behaviour
        are reused across search iterations.

        Only the assigned nodes' specs are re-read: their steps and the
        targets of their fanout taps are rebuilt as :meth:`refresh`
        rebuilds them, without fingerprinting the whole graph.  Other
        pending edits (a spec or coefficient changed in place) wait for
        the next :meth:`refresh`, which every evaluation runs first.

        Assigning bits to a node whose spec is disabled
        (``fractional_bits=None``) would silently *enable* quantization
        with a default ROUND spec; that is rejected with a ValueError
        naming the node unless ``allow_enable=True`` (the batched
        evaluators opt in because their configuration stacks legitimately
        toggle quantization per config).
        """
        with span("plan.requantize", nodes=len(assignment)):
            assigned = set()
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
                assigned.add(self.index_of[node.name])
            entries = list(self._quantization_signature)
            edits = []
            for index in assigned:
                position = self._positions[index]
                was = entries[position]
                now = _spec_signature(self.steps[index].node.quantization)
                if was != now:
                    entries[position] = now
                    edits.append((index, was, now))
            if edits:
                self._quantization_signature = tuple(entries)
                self._rebuild(self._spec_changes(edits))

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
                quantizer=spec.edge_quantizer(bits),
                noise=stats if (stats.variance > 0.0
                                or stats.mean != 0.0) else None,
            )
        return tuple(taps) if taps is not None else None

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
    # Change record (pull-based consumers)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotonic counter of refreshes that rebuilt some step.

        Pull-based consumers snapshot this after syncing and pass the
        snapshot to :meth:`steps_rebuilt_since` on the next pull.
        """
        return self._epoch

    def steps_rebuilt_since(self, epoch: int) -> np.ndarray:
        """Indices of steps rebuilt after ``epoch``: the seeds of the
        cone a consumer synced at ``epoch`` recomputes.

        Call :meth:`refresh` first (or go through a path that does, such
        as :meth:`requantize`) so pending in-place spec or coefficient
        mutations are folded into the record.
        """
        return np.nonzero(self._rebuild_epochs > epoch)[0]

    def downstream_cone(self, indices) -> list[int]:
        """Step indices reachable from ``indices``, seeds included.

        The result is sorted, and therefore in topological order: it is
        exactly the re-evaluation schedule for an edit at the seed steps,
        everything outside it provably unaffected.  Reachability is a
        union over the seeds, so a multi-seed cone is the sorted union of
        the seeds' own cones (:meth:`step_cone`).
        """
        seeds = {int(index) for index in indices}
        if len(seeds) == 1:
            return self.step_cone(seeds.pop()).tolist()
        if not seeds:
            return []
        return np.unique(np.concatenate(
            [self.step_cone(seed) for seed in seeds])).tolist()

    def step_cone(self, index: int) -> np.ndarray:
        """The sorted ``intp`` array of steps reachable from step
        ``index``, itself included; searched once per plan (the
        structure is frozen)."""
        cone = self._cones.get(index)
        if cone is None:
            seen = {index}
            frontier = [index]
            while frontier:
                for successor in self._successors[frontier.pop()]:
                    if successor not in seen:
                        seen.add(successor)
                        frontier.append(successor)
            cone = np.array(sorted(seen), dtype=np.intp)
            cone.flags.writeable = False
            self._cones[index] = cone
        return cone

    def _level_groups(self) -> tuple[StepGroup, ...]:
        """The schedule grouped into :class:`StepGroup` levels, in depth
        order.

        A step's depth is one more than its deepest predecessor's, so the
        members of a group never feed each other and every group comes
        after the groups of its members' inputs.  Rates are reduced
        ``(numerator, denominator)`` pairs relative to the inputs' and
        follow port 0, as the PSD's bin count does.
        """
        depth = [0] * len(self.steps)
        rate = [(1, 1)] * len(self.steps)
        groups: dict[tuple, list[PlanStep]] = {}
        for step in self.steps:
            node = step.node
            index = step.index
            predecessors = step.predecessors
            if predecessors:
                depth[index] = 1 + max(depth[p] for p in predecessors)
                up, down = rate[predecessors[0]]
                if isinstance(node, DownsampleNode):
                    down *= node.factor
                elif isinstance(node, UpsampleNode):
                    up *= node.factor
                common = gcd(up, down)
                rate[index] = (up // common, down // common)
            key = (depth[index], type(node), step.is_source,
                   _rule_parameters(node), rate[index],
                   tuple(rate[p] for p in predecessors))
            groups.setdefault(key, []).append(step)
        return tuple(StepGroup(members) for key, members
                     in sorted(groups.items(), key=lambda item: item[0][0]))

    def coefficient_fingerprint(self) -> tuple:
        """Hashable fingerprint of the plan's transfer behaviour.

        Covers everything the symbolic transfer functions and
        double-precision reference runs depend on: the coefficient state
        of every node plus the effective coefficient precision of the
        nodes that round coefficients (a data-path word length of any
        other node leaves it alone).  Two plan states with equal
        fingerprints have bit-identical path functions and reference
        simulations — the cache key of the flat method's path-function
        memo and the simulation method's reference-run memo.  Call
        :meth:`refresh` first so pending mutations are folded in.
        """
        return (self._coefficient_signature,
                tuple(self.coeff_key_for_bits(
                          step, step.node.quantization.fractional_bits)
                      for step in self.coefficient_steps))

    def coeff_key_for_bits(self, step: PlanStep, bits: int | None):
        """Effective coefficient precision at a data word length (the
        live one included).

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
    # Memoized per-node transfer behaviour, by kind ("block", "shaping")
    # ------------------------------------------------------------------
    def _cached(self, quantity: str, step: PlanStep, kind: str,
                bits: int | None, compute, *extra):
        """``quantity`` of a step's ``kind`` transfer behaviour at ``bits``
        data bits: from the content cache, else ``compute()``.

        The key is ``quantity``, the node type, the coefficient state the
        last refresh recorded for the step, ``kind``, the effective
        coefficient precision and ``extra`` (a bin count).  A cached
        value is a deterministic function of its key, so nodes of one
        design share an entry, and a coefficient edit, once refreshed,
        looks up a new key (the old entries stay until the plan is
        dropped).  A value computed while an in-place coefficient edit of
        the step is pending (no refresh since) describes other
        coefficients than the key's: it is returned but not kept.
        """
        state = self._coefficient_signature[self._positions[step.index]]
        key = (quantity, type(step.node), state, kind,
               self.coeff_key_for_bits(step, bits), *extra)
        value = self._content_cache.get(key)
        if value is None:
            value = compute()
            if state == _node_coefficient_state(step.node):
                self._content_cache[key] = value
        return value

    def transfer_function(self, step: PlanStep, kind: str,
                          bits: int | None) -> TransferFunction:
        """The step's ``kind`` transfer function at ``bits`` data bits:
        ``"block"``, its coefficients rounded at the effective precision,
        or ``"shaping"``, the IIR noise shaping of its internal
        quantizer."""
        def compute():
            tf = self._compute_with_bits(step, bits,
                                         _TRANSFER_FUNCTIONS[kind])
            # A copy: a node may hand out its own transfer function, whose
            # arrays an in-place edit would change under this key.
            return TransferFunction(tf.b, tf.a)
        return self._cached("tf", step, kind, bits, compute)

    def response(self, step: PlanStep, kind: str, bits: int | None,
                 n_bins: int) -> np.ndarray:
        """Complex frequency response (read-only) of
        :meth:`transfer_function` on ``n_bins`` bins."""
        def compute():
            response = self.transfer_function(
                step, kind, bits).frequency_response(n_bins)
            response.flags.writeable = False
            return response
        return self._cached("response", step, kind, bits, compute, n_bins)

    def magnitude(self, step: PlanStep, kind: str, bits: int | None,
                  n_bins: int) -> tuple[np.ndarray, float]:
        """``(|H|^2, Re H[0])`` of :meth:`response`: the squared magnitude
        and DC gain a PSD is filtered by.  Derived from the cached complex
        response, so a plan read by the PSD and the tracked walks
        computes each response once and takes its ``np.abs`` once."""
        def compute():
            response = self.response(step, kind, bits, n_bins)
            squared = np.abs(response) ** 2
            squared.flags.writeable = False
            return squared, float(np.real(response[0]))
        return self._cached("magnitude", step, kind, bits, compute, n_bins)

    def gains(self, step: PlanStep, kind: str,
              bits: int | None) -> tuple[float, float]:
        """``(energy, coefficient_sum)`` of :meth:`transfer_function`."""
        def compute():
            tf = self.transfer_function(step, kind, bits)
            return tf.energy(), tf.coefficient_sum()
        return self._cached("gains", step, kind, bits, compute)

    def noise_for_bits(self, step: PlanStep, bits: int | None) -> NoiseStats:
        """Moments the step would generate with ``bits`` fractional bits
        (computed once per plan state: a rebuild by :meth:`refresh` or
        :meth:`requantize` drops the step's entries)."""
        cache = self._noise_cache.setdefault(step.index, {})
        stats = cache.get(bits)
        if stats is None:
            if bits == step.node.quantization.fractional_bits:
                stats = (step.noise if step.noise is not None
                         else NoiseStats(0.0, 0.0))
            else:
                stats = self._compute_with_bits(
                    step, bits, lambda node: node.generated_noise())
            cache[bits] = stats
        return stats

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
            # A run takes one stream per input.  A scalar or an empty
            # record has nothing to measure: it would yield the power of
            # one sample, or fail deep inside a node.
            if slot.ndim != 1 or slot.size == 0:
                raise ValueError(
                    f"stimulus for input node {name!r} has shape "
                    f"{slot.shape}; it needs one 1-D stream of at least "
                    "one sample")
            # One NaN or inf sample would turn every measured power and
            # Ed into NaN (or a plausible-looking wrong value) silently.
            # min/max propagate NaN and reach +-inf, so they catch both
            # without a stimulus-sized mask (which measurably raises the
            # peak RSS of long stimuli).
            if not (np.isfinite(slot.min()) and np.isfinite(slot.max())):
                raise ValueError(
                    f"stimulus for input node {name!r} holds NaN or "
                    "infinite samples")
        return slots

    def run(self, inputs: dict, mode: str = "double",
            keep_signals: bool = False) -> ExecutionResult:
        """Execute the schedule on one stimulus.

        This is the only way the library executes a graph: both
        precision modes walk the schedule, apply the input quantizers
        and the fanout taps (fixed mode) and call each node's
        ``simulate`` or ``simulate_fixed``.  The differential oracle
        :func:`repro.verify.legacy.legacy_run` restates the walk over
        the preserved legacy loops.

        Parameters
        ----------
        inputs:
            Mapping from input-node name to its sample vector: one 1-D
            stream per input.  Any other shape raises a ``ValueError``
            naming the input.
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
        return self._run(inputs, mode, keep_signals)

    def _run(self, inputs: dict, mode: str,
             keep_signals: bool) -> ExecutionResult:
        """:meth:`run` on the plan as it stands, without the refresh: for
        a caller that has just refreshed it, or edited it through
        :meth:`requantize` only (the legs of a simulated measurement)."""
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
                simulate = (step.node.simulate_fixed if fixed
                            else step.node.simulate)
                signals[step.index] = simulate(node_inputs)
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
        """``(reference, fixed)``: a ``double`` run, then a ``fixed`` run
        (one refresh for both)."""
        return (self.run(inputs, "double", keep_signals),
                self._run(inputs, "fixed", keep_signals))

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
    precision gets its own response row, served from the plan's content
    cache).

    The stack is stored *sparsely*, as each config's deviations from the
    plan's live quantization (:attr:`deviations`: per config, the
    frozenset of its ``(step index or (target, port) tap slot, bits)``
    pairs), so building it costs O(steps + assignment keys) — one
    snapshot of every step's live bits, noise and taps, then the keys —
    rather than O(K x steps): a round of one-key optimizer candidates
    stays cheap on a wide graph.  A config's *cone* is the downstream
    cone of the steps where its own or incoming-tap word lengths differ
    from the live plan; outside it the config's walk provably equals the
    live one.  :meth:`cone_mask` marks those cones per step, and the
    walks' queries (noise moments, tap noise, response magnitudes and
    gains) take the :class:`StepRows` they compute — a whole level
    group's ``(step, config)`` rows at once — and answer row by row.

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

    __slots__ = ("plan", "size", "deviations", "_live_bits", "_live_noise",
                 "_live_moments", "_deltas", "_has_delta", "_edge_slots",
                 "_edge_ports", "_live_edge_bits", "_edge_deltas", "_seeds",
                 "_mask")

    def __init__(self, plan: CompiledPlan, assignments):
        assignments = list(assignments)
        if not assignments:
            raise ValueError("the configuration stack is empty")
        self.plan = plan
        self.size = len(assignments)
        self._live_bits = tuple(step.node.quantization.fractional_bits
                                for step in plan.steps)
        self._live_noise = tuple(step.noise for step in plan.steps)
        self._live_moments = None
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
        # per config the seed steps of its cone, and per config the
        # frozenset of its (step or slot, bits) deviations.
        self._deltas: dict[int, dict] = {}
        self._edge_deltas: dict[tuple[int, int], dict] = {}
        self._seeds: list[list[int]] = []
        self.deviations: list[frozenset] = []
        unknown = set()
        for config, assignment in enumerate(assignments):
            seeds = []
            deviation = []
            for key, bits in assignment.items():
                index = plan.index_of.get(key)
                if index is not None:
                    if bits != self._live_bits[index]:
                        self._deltas.setdefault(index, {})[config] = bits
                        seeds.append(index)
                        deviation.append((index, bits))
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
                    deviation.append((slot, bits))
            self._seeds.append(seeds)
            self.deviations.append(frozenset(deviation))
        if unknown:
            raise ValueError(
                f"assignment names unknown to the graph: {sorted(unknown)}")
        self._has_delta = np.zeros(len(plan.steps), dtype=bool)
        self._has_delta[list(self._deltas)] = True
        self._edge_ports: dict[int, dict[int, str]] = {}
        for key in sorted(self._edge_slots):
            target, port = self._edge_slots[key]
            self._edge_ports.setdefault(target, {})[port] = key
        self._mask = None

    # ------------------------------------------------------------------
    # Per-config cones
    # ------------------------------------------------------------------
    def cone_mask(self) -> np.ndarray:
        """Which rows the row-sparse batched walk computes.

        A ``(steps, K)`` boolean array: entry ``(i, k)`` says whether
        step ``i`` is in config ``k``'s cone.  Cones are
        downstream-closed, so a step's configs include those of every
        predecessor.
        """
        if self._mask is None:
            mask = np.zeros((len(self.plan.steps), self.size), dtype=bool)
            for config, seeds in enumerate(self._seeds):
                for seed in seeds:
                    mask[self.plan.step_cone(seed), config] = True
            self._mask = mask
        return self._mask

    # ------------------------------------------------------------------
    # Per-row queries
    # ------------------------------------------------------------------
    def step_rows(self, step: PlanStep) -> StepRows:
        """Every config's row at one step."""
        return StepRows(np.full(self.size, step.index, dtype=np.intp),
                        np.arange(self.size), step.index)

    def bits(self, step: PlanStep) -> tuple:
        """Per-config data-path fractional bits of one step."""
        live = self._live_bits[step.index]
        deltas = self._deltas.get(step.index)
        if not deltas:
            return (live,) * self.size
        return tuple(deltas.get(config, live) for config in range(self.size))

    def _row_bits(self, rows: StepRows) -> list:
        live = self._live_bits
        deltas = self._deltas
        return [live[index] if index not in deltas
                else deltas[index].get(config, live[index])
                for index, config in rows.pairs()]

    def noise(self, rows: StepRows):
        """Own-noise moments ``(means, variances)`` of each row.

        ``None`` when every row is silent; silent rows carry exact zeros.
        """
        index = rows.step
        if index is not None and index not in self._deltas:
            live = self._live_noise[index]
            if live is None:
                return None
            return (np.full(rows.size, live.mean),
                    np.full(rows.size, live.variance))
        if self._live_moments is None:
            self._live_moments = tuple(
                np.array([0.0 if noise is None else getattr(noise, name)
                          for noise in self._live_noise])
                for name in ("mean", "variance"))
        means, variances = (live[rows.steps] for live in self._live_moments)
        if self._has_delta[rows.steps].any():
            for row, (index, config) in enumerate(rows.pairs()):
                deltas = self._deltas.get(index)
                if deltas is not None and config in deltas:
                    stats = self.plan.noise_for_bits(self.plan.steps[index],
                                                     deltas[config])
                    means[row] = stats.mean
                    variances[row] = stats.variance
        return _noisy(means, variances)

    def edge_noise(self, rows: StepRows):
        """Tap-noise moments of each row's incoming edges.

        ``None`` when no row injects tap noise; otherwise ``{input port:
        (means, variances)}`` with exact zeros for silent rows.  A tap's
        noise sees the source's word length *in the same config* as its
        input grid, mirroring the scalar :class:`EdgeTap` exactly.
        """
        if not self._edge_ports:
            return None
        pairs = list(rows.pairs())
        ports = sorted({port for index, _ in pairs
                        for port in self._edge_ports.get(index, ())})
        result = None
        per_pair: dict = {}
        for port in ports:
            means = np.zeros(rows.size)
            variances = np.zeros(rows.size)
            for row, (index, config) in enumerate(pairs):
                slot = (index, port)
                if port not in self._edge_ports.get(index, ()):
                    continue
                bits = self._edge_deltas.get(slot, {}).get(
                    config, self._live_edge_bits.get(slot))
                if bits is None:
                    continue
                source = self.plan.steps[self.plan.steps[index]
                                         .predecessors[port]]
                source_bits = self._deltas.get(source.index, {}).get(
                    config, self._live_bits[source.index])
                rounding = source.node.quantization.rounding
                key = (bits, source_bits, rounding)
                stats = per_pair.get(key)
                if stats is None:
                    stats = per_pair[key] = quantization_noise_stats(
                        int(bits), rounding=rounding,
                        input_fractional_bits=source_bits)
                means[row] = stats.mean
                variances[row] = stats.variance
            noise = _noisy(means, variances)
            if noise is not None:
                result = result or {}
                result[port] = noise
        return result

    def edge_noise_sources(self) -> dict[str, tuple]:
        """``{edge key: (means, variances)}`` of taps noisy in some config."""
        result = {}
        for target, ports in self._edge_ports.items():
            rows = self.step_rows(self.plan.steps[target])
            for port, arrays in (self.edge_noise(rows) or {}).items():
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

    def live_coefficient_signature(self) -> tuple:
        """The coefficient signature of the plan's live configuration.

        A config group with this signature shares the live plan's
        transfer behaviour, so it can be evaluated on the plan as it
        stands, without requantizing it.
        """
        return tuple(self.plan.coeff_key_for_bits(
                         step, self._live_bits[step.index])
                     for step in self.plan.coefficient_steps)

    def coefficient_groups(self) -> dict[tuple, list[int]]:
        """``{signature: config indices}``: the configs grouped by their
        coefficient signature, the tuple of their effective coefficient
        precisions, in order of first appearance.

        Within one group every transfer function, frequency response and
        double-precision reference behaviour is shared; only the noise
        moments (and the fixed-point data paths) differ per member.  Only
        nodes whose behaviour actually quantizes coefficients (gains, FIR
        taps, IIR coefficients) contribute; coefficient-free nodes would
        otherwise split groups that share identical transfer behaviour.
        """
        columns = [tuple(self.plan.coeff_key_for_bits(step, bits)
                         for bits in self.bits(step))
                   for step in self.plan.coefficient_steps]
        signatures = zip(*columns) if columns else [()] * self.size
        groups: dict[tuple, list[int]] = {}
        for config, signature in enumerate(signatures):
            groups.setdefault(signature, []).append(config)
        return groups

    # ------------------------------------------------------------------
    # Per-row responses / gains (shared when every row has the same)
    # ------------------------------------------------------------------
    def _per_row(self, rows: StepRows, lookup):
        """``lookup(step, bits)`` of every row: one answer for all rows of
        a step without deltas, else the per-row answers stacked."""
        steps = self.plan.steps
        index = rows.step
        if index is not None and index not in self._deltas:
            return lookup(steps[index], self._live_bits[index])
        return _stacked([lookup(steps[index], bits)
                         for index, bits in zip(rows.steps.tolist(),
                                                self._row_bits(rows))])

    def magnitudes(self, rows: StepRows, kind: str, n_bins: int):
        """``(|H|^2, DC gain)`` of each row's ``kind`` response on
        ``n_bins`` bins (:meth:`CompiledPlan.magnitude`): one
        ``(n_bins,)`` row and a float when every row has the same
        response, ``(rows, n_bins)`` and ``(rows,)`` arrays otherwise."""
        plan = self.plan
        return self._per_row(rows, lambda step, bits: plan.magnitude(
            step, kind, bits, n_bins))

    def gains(self, rows: StepRows, kind: str):
        """``(energy, dc)`` of each row's ``kind`` function
        (:meth:`CompiledPlan.gains`): scalars when shared, per-row arrays
        else."""
        plan = self.plan
        return self._per_row(rows, lambda step, bits: plan.gains(
            step, kind, bits))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ConfigStack(size={self.size}, "
                f"plan={self.plan.graph.name!r})")


def _noisy(means: np.ndarray, variances: np.ndarray):
    """``(means, variances)``, or ``None`` when every row is silent."""
    if not ((variances > 0.0) | (means != 0.0)).any():
        return None
    return means, variances


def _stacked(entries: list):
    """The entry every row shares, else each field of the entries as an
    array with a leading row axis."""
    first = entries[0]
    if all(entry is first for entry in entries):
        return first
    return tuple(np.array(field) for field in zip(*entries))


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
    decomposes a per-node diff (:meth:`CompiledPlan._spec_changes`):
    index 4 (edge entries) rebuilds the targets whose entries changed,
    indices 0 (word length) and 1 (rounding) also rebuild every tapped
    fanout target, and every index but 4 rebuilds the node's own step.
    """
    return tuple(_spec_signature(node.quantization)
                 for node in graph.nodes.values())


def _spec_signature(spec) -> tuple:
    """One node's entry of :func:`quantization_signature`."""
    return (spec.fractional_bits, spec.rounding,
            spec.coefficient_fractional_bits, spec.input_fractional_bits,
            spec.edge_fractional_bits, spec.integer_bits)


def _node_coefficient_state(node: Node) -> tuple:
    if isinstance(node, GainNode):
        return (node.gain,)
    if isinstance(node, FirNode):
        # A frequency-domain FIR's own noise depends on its FFT size.
        return (node.taps.tobytes(), getattr(node, "fft_size", None))
    if isinstance(node, (IirNode, LtiNode)):
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
    detect in-place coefficient edits; each node's entry is also part of
    the content keys its memoized responses are stored under.
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

"""Shared graph-walking machinery of the analytical evaluation engines.

All analytical methods traverse the acyclic signal-flow graph in
topological order, maintaining one noise representation per node output
and injecting each node's own quantization-noise source at its output.

The traversal runs over a :class:`~repro.sfg.plan.CompiledPlan`:
validation, topological ordering and noise-source discovery happen once at
plan compilation, and each walk simply replays the index-based schedule.
Per-node transfer behaviour of each kind — the block function and the
IIR noise shaping — comes from the plan's one content cache
(:meth:`~repro.sfg.plan.CompiledPlan.response` and its siblings take the
``kind``), so repeated evaluations of the same graph — the word-length
optimizer's inner loop, the execution-time benchmark — skip every
FFT-sized computation after the first call.

One propagation rule
--------------------
The paper's methods differ only in what crosses each block boundary, so
every walk runs one step rule, :func:`_step`: fanout-tap noise enters a
node's input, the node's rule per type (an LTI block, an adder's signed
sum, an output, a decimator or an expander) carries the noise across,
and the node's own source joins at its output, IIR-shaped by
``1 / A(z)``.  A representation supplies the rest — its zero, its one
``filtered`` operand of each kind (``"block"`` or IIR ``"shaping"``),
the sum of an adder's terms, and its white sources with their
injection:

* the stacked :class:`~repro.psd.spectrum.DiscretePsd` of the proposed
  method (white injection, Eq. 10; ``|H|^2`` shaping, Eq. 11;
  uncorrelated addition, Eq. 14; folding and imaging at rate changes);
* the stacked :class:`~repro.fixedpoint.noise_model.NoiseStats`
  ``(mu, sigma^2)`` of the PSD-agnostic baseline;
* the :class:`~repro.psd.propagation.TrackedSpectrum` of the
  correlation-exact variant (Eqs. 12-13);
* the per-source path transfer functions of the flat method (Eq. 4).

The two stacked ones carry a leading configuration axis: a batched
evaluation runs the rule over a :class:`~repro.sfg.plan.ConfigStack` of
``K`` word-length assignments, skipping silent sources row by row, and a
scalar evaluation is the ``K = 1`` case — a stack of the live plan with
no deltas, whose row 0 the public APIs hand back as a plain value.

Incremental re-evaluation
-------------------------
On top of the content cache, each plan carries one :class:`NoiseMemo`: a
pull-based cache of the *propagated* per-node ``K = 1`` values themselves,
one channel per ``(representation, n_bins)``.  A pull recomputes only the
downstream cone of the steps the plan rebuilt since the channel last
synced (:meth:`~repro.sfg.plan.CompiledPlan.steps_rebuilt_since`, the
plan's one change record, which the batched walks' kept rows go by too),
reusing every other node's cached value as-is.  It expects the plan to be
refreshed already: every public entry point compiles its system first,
and :func:`~repro.sfg.plan.compile_plan` folds pending spec/coefficient
mutations in (``plan.refresh()``, which records the rebuilt steps at a
new plan epoch) — once per evaluation.  Because a cone recompute replays
exactly the same operations the full walk would, on bit-identical cached
inputs, the result is bit-identical to a cold walk — the ``incremental``
check of :func:`repro.verify.differential.verify_graph` fuzzes that
equivalence, and ``ARCHITECTURE.md`` spells out the exactness argument.
This is what turns the word-length optimizer's one-node candidate edits
from O(nodes) walks into O(depth) cone updates.

The batched walks pull the memo as their baseline and are row-sparse:
config ``k``'s row is computed only inside its own cone (the downstream
cone of the steps where its word lengths deviate from the plan's live
configuration) and copied from row 0 of the memo everywhere else, so a
stack of one-key deltas costs the sum of the candidates' cones
(bit-identical by the batched-walk row contract pinned in
``tests/test_analysis_batch.py``).  Inside its cone, a row the
previous batched walk computed for a config of the same deviation is
reused where it lies unless a step upstream of it was rebuilt since
(:func:`_reuse`), so a greedy round computes only what its last
accepted move changed.

Level groups
------------
A batched walk runs the plan's :attr:`~repro.sfg.plan.CompiledPlan.levels`
rather than its steps: the steps of one topological depth that share one
rule and one bin grid (the 64-branch bank's 129 steps are 9 groups, a
chain keeps one step per group).  Per group it gathers each input port's
rows with one ``take`` from a store of rows reused across the plan's
walks (:class:`_Block`), through a per-walk table from ``(step,
config)`` to store row that covers the rows computed so far, the rows
kept from the previous walk and the memo's ``K = 1`` rows; it applies
:func:`_step` once to the group's flattened rows; and the
representation writes the value in place into free store rows
allocated for the group.  ``|H|^2`` and DC gains come from
the plan's content cache.  Every row still applies the operations of
its own ``K = 1`` walk, in the same order, so the results are unchanged
to the bit.  The ``K = 1`` walks — memo pulls and cold walks — keep
their step-by-step loop and allocate their values, which the memo
publishes.  A pull's cone is mostly a chain, one step per level, and
grouping the cold walk alone would shrink the cold/warm ratios that
``repro bench --check`` gates below their floors (``ARCHITECTURE.md``,
"Row-sparse rounds").

The memo is always on, and exact.  A cold evaluation is an evaluation of
a fresh :class:`~repro.sfg.plan.CompiledPlan` — empty memo, empty
content cache: the reference side of the differential checks and the
tests — or one right after :meth:`NoiseMemo.clear`, which leaves the
plan's content cache warm: the cold side of the timing harnesses.

Returned representations are shared with the memo: treat them as
immutable (which every representation class already is by convention).
A batched walk's store is never published: it returns a copy.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.fixedpoint.noise_model import NoiseStats
from repro.lti.transfer_function import TransferFunction
from repro.obs import MetricsRegistry, metric_inc, span
from repro.psd.spectrum import DiscretePsd
from repro.psd.propagation import TrackedSpectrum
from repro.sfg.graph import SignalFlowGraph
from repro.sfg.nodes import (
    AddNode,
    DownsampleNode,
    IirNode,
    OutputNode,
    UpsampleNode,
    _LtiMixin,
)
from repro.sfg.plan import (
    CompiledPlan,
    ConfigStack,
    StepRows,
    compile_plan,
    parse_edge_key,
)


# ----------------------------------------------------------------------
# The step rule (shared by every walk and every representation)
# ----------------------------------------------------------------------
def _step(rep, group, rows, inputs):
    """One step of an analytical walk: the noise at a node's output.

    This is the one propagation rule of every analytical method; ``rep``
    supplies what differs between them (the representations below):
    its ``zero``, its ``filtered`` operand of a ``kind`` — ``"block"``
    for an LTI block's function, ``"shaping"`` for the ``1 / A(z)`` an
    IIR block's own noise sees — its ``add`` of an adder's terms, and
    the ``white`` sources it injects for fanout taps (``edge_noise``)
    and for the node's own quantizer (``noise``).
    Adders, outputs and resamplers use the algebra the values themselves
    carry: ``scaled``, ``downsampled`` and ``upsampled``.

    ``group`` is one :class:`~repro.sfg.plan.PlanStep` (a group of one)
    or a :class:`~repro.sfg.plan.StepGroup` of a batched walk's level;
    the rule reads only its ``node``, ``is_source`` and ``name``.
    ``rows`` says what the representation computes: the step itself for
    the live-plan representations, the :class:`~repro.sfg.plan.StepRows`
    of a stacked walk — every ``(step, config)`` row of the group, so a
    level runs the rule once.
    """
    node = group.node
    taps = rep.edge_noise(rows)
    if taps:
        # A tapped edge re-quantizes the value it carries, so its white
        # noise enters *before* the node's rule: an IIR target shapes it
        # with the full block transfer function, not the internal
        # noise-shaping response.
        inputs = list(inputs)
        for port, key, noise in taps:
            value = inputs[port]
            inputs[port] = rep.inject(value, rep.white(key, noise, value),
                                      noise)
    if group.is_source:
        acc = rep.zero(rows)
    elif isinstance(node, _LtiMixin):
        (value,) = inputs
        acc = rep.filtered(rows, value, "block")
    elif isinstance(node, AddNode):
        acc = rep.zero(rows, inputs[0])
        for sign, value in zip(node.signs, inputs):
            acc = rep.add(acc, value.scaled(sign))
    elif isinstance(node, OutputNode):
        (acc,) = inputs
    elif isinstance(node, DownsampleNode):
        (value,) = inputs
        acc = value.downsampled(node.factor)
    elif isinstance(node, UpsampleNode):
        (value,) = inputs
        acc = value.upsampled(node.factor)
    else:
        raise NotImplementedError(
            f"noise propagation does not support node type "
            f"{type(node).__name__}")
    noise = rep.noise(rows)
    if noise is not None:
        own = rep.white(group.name, noise, acc)
        if isinstance(node, IirNode):
            # The quantizer sits inside the recursion: 1 / A(z) shapes
            # its noise before it reaches the output.
            own = rep.filtered(rows, own, "shaping")
        acc = rep.inject(acc, own, noise)
    return acc


def _rule(rep):
    """The step rule on one representation, step by step: the
    ``compute_step(step, values)`` of a memo pull or cold walk."""
    def compute_step(step, values):
        return _step(rep, step, rep.rows(step),
                     [values[i] for i in step.predecessors])
    return compute_step


# ----------------------------------------------------------------------
# Noise representations
# ----------------------------------------------------------------------
class _Block:
    """Working rows of the batched walks of one plan, representation and
    row shape (a PSD's bin count), reused from walk to walk.

    Rows ``[0, steps)`` hold the memo's ``K = 1`` values, row ``i`` step
    ``i``'s, synced by identity, so a greedy round copies only the
    values its last accepted move changed.  The rows after them hold
    the rows of the last walk, which the next one may reuse where they
    lie, and the current walk's groups: :meth:`release` frees every row
    but the base rows and the ones a walk reuses, and :meth:`allocate`
    hands out the first free run that holds a group.  Nothing published
    lives here: a walk returns a copy of its output rows.
    """

    __slots__ = ("arrays", "synced", "starts", "ends")

    def __init__(self, shapes, steps: int):
        self.arrays = [np.empty((2 * steps,) + shape) for shape in shapes]
        self.synced: list = [None] * steps
        self.release(np.empty(0, dtype=np.intp))

    def release(self, kept: np.ndarray) -> None:
        """Free every row but the base rows and the rows ``kept``: the
        free runs are the gaps ``[starts[r], ends[r])`` between them, the
        last one ending at the capacity."""
        kept = np.unique(kept)
        self.starts = np.concatenate(([len(self.synced)], kept + 1))
        self.ends = np.append(kept, len(self.arrays[0]))

    def allocate(self, count: int) -> int:
        """The first of ``count`` fresh rows: from the first free run
        that holds them, else from the last one, the arrays growing
        (and keeping their rows) to make it long enough."""
        fits = np.flatnonzero(self.ends - self.starts >= count)
        if len(fits):
            run = fits[0]
        else:
            run = len(self.starts) - 1
            capacity = len(self.arrays[0])
            grown = max(capacity + capacity // 2,
                        int(self.starts[run]) + count)
            arrays = []
            for array in self.arrays:
                larger = np.empty((grown,) + array.shape[1:])
                larger[:capacity] = array
                arrays.append(larger)
            self.arrays = arrays
            self.ends[run] = grown
        start = int(self.starts[run])
        self.starts[run] = start + count
        return start


class _Store:
    """The batched walks' working rows on one plan and representation:
    one :class:`_Block` per row shape, and the slot table of the last
    walk, which the next walk may reuse.

    ``slots`` (``None`` when nothing is kept) maps ``(step, config)`` to
    the config's store row; ``columns`` maps each config's deviation
    from the live plan (:attr:`~repro.sfg.plan.ConfigStack.deviations`)
    to its column, and ``grid`` and ``epoch`` are the walk's bin count
    and plan epoch.  Only the rows of the config's own cone are kept
    rows; the others point at the base rows.
    """

    __slots__ = ("blocks", "grid", "epoch", "columns", "slots")

    def __init__(self):
        self.blocks: dict = {}
        self.slots = None


class _Stacked:
    """Moments with a leading config axis: the rows of a
    :class:`~repro.sfg.plan.ConfigStack`, silent sources skipped per
    row.

    Without a ``store`` the values a walk computes are fresh arrays (the
    ``K = 1`` walks, whose values the memo publishes).  With one — the
    plan's :class:`_Store` of the representation — every group's value
    is written in place into rows that the walk allocated for that group
    (the batched walk), and the walk moves values between groups with
    :meth:`begin`, :meth:`gather` and :meth:`commit`.  ``grid`` is the
    bin count a walk's rows live on (``None`` for moments).
    """

    grid = None

    def __init__(self, stack: ConfigStack, store: _Store | None = None):
        self.stack = stack
        self.store = store
        self._target = None

    def rows(self, step) -> StepRows:
        return self.stack.plan.unit_rows[step.index]

    def noise(self, rows):
        return self.stack.noise(rows)

    def edge_noise(self, rows):
        noise = self.stack.edge_noise(rows)
        return noise and [(port, None, moments)
                          for port, moments in noise.items()]

    def inject(self, acc, own, noise):
        """``acc + own``, except that rows whose source is silent (zero
        ``noise`` moments) keep ``acc`` untouched.

        A silent source is skipped, not added as zeros, exactly as the
        config's own ``K = 1`` walk skips it (its stack reports no noise
        there): adding zeros would flip a ``-0.0`` mean to ``+0.0``.  A
        batched walk adds in place: every value it injects into is a row
        set it allocated for the current group.
        """
        means, variances = noise
        loud = (variances > 0.0) | (means != 0.0)
        if self.store is not None:
            for target, term in zip(self._arrays(acc), self._arrays(own)):
                np.add(target, term, out=target,
                       where=loud.reshape(loud.shape
                                          + (1,) * (target.ndim - 1)))
            return acc
        total = acc + own
        quiet = ~loud
        if quiet.any():
            for target, kept in zip(self._arrays(total), self._arrays(acc)):
                target[quiet] = kept[quiet]
        return total

    def add(self, acc, value):
        """``acc + value``: an adder's term, added in place into the rows
        :meth:`zero` allocated when the walk has a store."""
        if self.store is None:
            return acc + value
        for target, term in zip(self._arrays(acc), self._arrays(value)):
            np.add(target, term, out=target)
        return acc

    def _out(self, rows, key, kind="block"):
        """The store rows allocated for a group's value: its zero or its
        block output, not the IIR-shaped source injected into that
        (``None`` for it, and without a store: the algebra allocates)."""
        if self.store is None or kind != "block":
            return None
        block = self._block(key)
        start = block.allocate(rows.size)
        value = self._value([array[start:start + rows.size]
                             for array in block.arrays])
        self._target = (key, start, value)
        return value

    # The batched walk's data movement -------------------------------
    def _block(self, key) -> _Block:
        blocks = self.store.blocks
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = _Block(self._shapes(key),
                                         len(self.stack.plan.steps))
        return block

    def begin(self, base, steps: np.ndarray, rows: np.ndarray) -> list:
        """Start a walk: sync the memo's ``K = 1`` values ``base`` into
        the base rows, free every other store row but the kept rows
        ``rows`` (of steps ``steps``) the walk reuses, and return each
        step's block key."""
        keys: list = [None] * len(self.stack.plan.steps)
        for index, value in enumerate(base):
            key = keys[index] = self._key(value)
            block = self._block(key)
            if block.synced[index] is not value:
                for array, field in zip(block.arrays, self._arrays(value)):
                    array[index] = field[0]
                block.synced[index] = value
        blocks = self.store.blocks
        for key, block in blocks.items():
            if len(blocks) > 1 and len(rows):
                # A step's kept rows live in its own block.
                mine = np.array([each == key for each in keys])
                block.release(rows[mine[steps]])
            else:
                block.release(rows)
        return keys

    def gather(self, key, slots: np.ndarray):
        """A fresh value of the store rows ``slots`` of block ``key``."""
        arrays = self.store.blocks[key].arrays
        return self._value([np.take(array, slots, axis=0)
                            for array in arrays])

    def commit(self, acc) -> tuple:
        """``(block key, first row)`` of a group's value in the store,
        copying it there unless the rule wrote it there already."""
        target, self._target = self._target, None
        if target is not None and target[2] is acc:
            return target[:2]
        key = self._key(acc)
        block = self._block(key)
        fields = self._arrays(acc)
        start = block.allocate(len(fields[0]))
        for array, field in zip(block.arrays, fields):
            array[start:start + len(field)] = field
        return key, start


class _StackedPsd(_Stacked):
    """Stacked :class:`DiscretePsd` on ``n_psd`` bins (Eqs. 10-14)."""

    def __init__(self, stack: ConfigStack, n_psd: int,
                 store: _Store | None = None):
        super().__init__(stack, store)
        self.n_psd = self.grid = n_psd

    def _key(self, value: DiscretePsd) -> int:
        return value.n_bins

    def _shapes(self, n_bins: int) -> tuple:
        return (n_bins,), ()

    def _arrays(self, value: DiscretePsd) -> tuple:
        return value.ac, value.mean

    def _value(self, arrays) -> DiscretePsd:
        return DiscretePsd._trusted(*arrays)

    def zero(self, rows, like=None) -> DiscretePsd:
        n_bins = self.n_psd if like is None else like.n_bins
        acc = self._out(rows, n_bins)
        if acc is None:
            return DiscretePsd.zero(n_bins, rows.size)
        acc.ac.fill(0.0)
        acc.mean.fill(0.0)
        return acc

    def white(self, key, noise, like) -> DiscretePsd:
        return DiscretePsd.white_view(*noise, like.n_bins)

    def filtered(self, rows, value, kind) -> DiscretePsd:
        # The PSD may live on fewer bins than n_psd when the signal was
        # decimated upstream: the response is sampled on its own grid.
        return value.weighted(
            *self.stack.magnitudes(rows, kind, value.n_bins),
            out=self._out(rows, value.n_bins, kind))

    def add(self, acc, value):
        if value.ac.shape != acc.ac.shape:
            # What DiscretePsd's + says when the store adds in place.
            raise ValueError(f"cannot add PSDs of shapes {acc.ac.shape} "
                             f"and {value.ac.shape}")
        return super().add(acc, value)


class _StackedStats(_Stacked):
    """Stacked :class:`NoiseStats`: the PSD-agnostic ``(mu, sigma^2)``."""

    def _key(self, value: NoiseStats) -> None:
        return None

    def _shapes(self, key) -> tuple:
        return (), ()

    def _arrays(self, value: NoiseStats) -> tuple:
        return value.mean, value.variance

    def _value(self, arrays) -> NoiseStats:
        return NoiseStats(*arrays)

    def zero(self, rows, like=None) -> NoiseStats:
        acc = self._out(rows, None)
        if acc is None:
            return NoiseStats(mean=np.zeros(rows.size),
                              variance=np.zeros(rows.size))
        acc.mean.fill(0.0)
        acc.variance.fill(0.0)
        return acc

    def white(self, key, noise, like) -> NoiseStats:
        return NoiseStats(*noise)

    def filtered(self, rows, value, kind) -> NoiseStats:
        return value.filtered(*self.stack.gains(rows, kind),
                              out=self._out(rows, None, kind))


class _Live:
    """Base of the live-plan representations: one step at a time, and
    every source injects."""

    def __init__(self, plan: CompiledPlan):
        self.plan = plan

    def rows(self, step):
        return step

    def inject(self, acc, own, noise):
        return acc + own

    def add(self, acc, value):
        return acc + value


class _Tracked(_Live):
    """:class:`TrackedSpectrum`: one complex path response per source."""

    def __init__(self, plan: CompiledPlan, n_psd: int):
        super().__init__(plan)
        self.n_psd = n_psd

    def zero(self, step, like=None) -> TrackedSpectrum:
        return TrackedSpectrum.zero(self.n_psd)

    def white(self, key, noise, like) -> TrackedSpectrum:
        return TrackedSpectrum.from_source(key, noise, self.n_psd)

    def filtered(self, step, value, kind) -> TrackedSpectrum:
        return value.filtered(self.plan.response(
            step, kind, step.node.quantization.fractional_bits, self.n_psd))

    def noise(self, step):
        return step.noise

    def edge_noise(self, step):
        return [(port, tap.key, tap.noise)
                for port, tap in enumerate(step.edge_taps or ())
                if tap is not None and tap.noise is not None]


class _PathFunctions(dict):
    """``{source: transfer function}`` from each noise source to a signal:
    the flat method's representation (Eq. 4), with the algebra of the
    other values.  Shared sources combine in parallel at an adder, so
    re-convergent paths are exact."""

    def scaled(self, gain: float) -> "_PathFunctions":
        return _PathFunctions({source: tf.scaled(gain)
                              for source, tf in self.items()})

    def filtered(self, tf: TransferFunction) -> "_PathFunctions":
        return _PathFunctions({source: path.cascade(tf)
                              for source, path in self.items()})

    def __add__(self, other: "_PathFunctions") -> "_PathFunctions":
        merged = _PathFunctions(self)
        for source, tf in other.items():
            merged[source] = (merged[source].parallel(tf)
                              if source in merged else tf)
        return merged


class _Paths(_Live):
    """Path transfer functions of a requested set of sources: node names
    and ``"source->target"`` edge keys.  The set, not the plan's live
    taps, decides what injects, so a batch group can ask for the union
    of its configs' sources."""

    def __init__(self, plan: CompiledPlan, sources):
        super().__init__(plan)
        self.sources = sources
        # An edge key injects at its target's input port.
        self.ports: dict[int, list] = {}
        for name in sources:
            if name not in plan.index_of:
                target, port = plan._resolve_edge(*parse_edge_key(name))
                self.ports.setdefault(target, []).append((port, name, name))

    def zero(self, step, like=None) -> _PathFunctions:
        return _PathFunctions()

    def white(self, key, noise, like) -> _PathFunctions:
        return _PathFunctions({key: TransferFunction.identity()})

    def filtered(self, step, value, kind) -> _PathFunctions:
        return value.filtered(self.plan.transfer_function(
            step, kind, step.node.quantization.fractional_bits))

    def noise(self, step):
        return step.name if step.name in self.sources else None

    def edge_noise(self, step):
        return self.ports.get(step.index)


def _full_walk(plan: CompiledPlan, compute_step, **attrs) -> list:
    """Every step's value, in schedule order: the ``K = 1`` walk of a
    cold memo pull and of the flat method's path functions (``attrs``
    label its span)."""
    with span("analysis.walk", **attrs, steps=len(plan.steps)):
        values: list = [None] * len(plan.steps)
        for step in plan.steps:
            values[step.index] = compute_step(step, values)
    return values


# ----------------------------------------------------------------------
# The per-plan memo
# ----------------------------------------------------------------------
class _Channel:
    """One representation's cached per-step values and their sync epoch."""

    __slots__ = ("values", "epoch")

    def __init__(self, values: list, epoch: int):
        self.values = values
        self.epoch = epoch


class NoiseMemo:
    """Pull-based cache of propagated per-node noise representations.

    One memo lives on each plan (see :func:`plan_memo`); channels are
    keyed by representation and bin count, e.g. ``("psd", 512)``.  The
    counters make the work split observable: ``full_walks`` counts cold
    channel builds, ``cone_recomputes`` counts pulls that re-evaluated
    the cone of rebuilt steps, and ``steps_recomputed`` /
    ``steps_reused`` count the per-step work either way — the
    word-length optimizer surfaces the first two in
    :class:`~repro.systems.wordlength.WordLengthResult`.
    The batched walks that use the memo as their baseline add
    ``rows_computed`` (config rows a walk evaluated), ``rows_reused``
    (rows of a config's cone taken from the previous walk's store rows)
    and ``rows_copied`` (config rows served from the memo's value).

    The counters are backed by a private (always-on) metrics registry;
    the attribute names remain the public surface as read-only views,
    and every increment is mirrored into the process-wide observability
    session (`repro.obs`) under ``memo.*`` when one is enabled.

    The memo also holds the batched walks' working rows (``stores``:
    one :class:`_Store` per representation), so they are reused across
    the walks of one plan and reclaimed with it.  :meth:`clear` drops
    every cached value and keeps the counters.
    """

    #: Bound on the flat method's path-function entries (one entry per
    #: distinct (output, sources, coefficient fingerprint) seen).
    PATH_CACHE_LIMIT = 32

    def __init__(self, plan: CompiledPlan):
        self.plan = plan
        self._channels: dict[tuple, _Channel] = {}
        # Symbolic path functions of the flat method, LRU-bounded: they
        # depend only on the plan's coefficient fingerprint, not on the
        # data-path word lengths, so the optimizer's requantize loop hits
        # one entry over and over.
        self.path_functions: "OrderedDict[tuple, dict]" = OrderedDict()
        self.metrics = MetricsRegistry()
        self._full_walks = self.metrics.counter("memo.full_walks")
        self._cone_recomputes = self.metrics.counter("memo.cone_recomputes")
        self._steps_recomputed = self.metrics.counter("memo.steps_recomputed")
        self._steps_reused = self.metrics.counter("memo.steps_reused")
        self._rows_computed = self.metrics.counter("memo.rows_computed")
        self._rows_reused = self.metrics.counter("memo.rows_reused")
        self._rows_copied = self.metrics.counter("memo.rows_copied")
        self.stores: dict[str, _Store] = {}

    @property
    def full_walks(self) -> int:
        return self._full_walks.value

    @property
    def cone_recomputes(self) -> int:
        return self._cone_recomputes.value

    @property
    def steps_recomputed(self) -> int:
        return self._steps_recomputed.value

    @property
    def steps_reused(self) -> int:
        return self._steps_reused.value

    def counters(self) -> dict[str, int]:
        """Snapshot of the work counters (cheap, copy-safe)."""
        return {"full_walks": self.full_walks,
                "cone_recomputes": self.cone_recomputes,
                "steps_recomputed": self.steps_recomputed,
                "steps_reused": self.steps_reused,
                "rows_computed": self._rows_computed.value,
                "rows_reused": self._rows_reused.value,
                "rows_copied": self._rows_copied.value}

    def count_rows(self, computed: int, reused: int, copied: int) -> None:
        """Record one batched walk's row split."""
        for counter, rows in ((self._rows_computed, computed),
                              (self._rows_reused, reused),
                              (self._rows_copied, copied)):
            counter.inc(rows)
            metric_inc(counter.name, rows)

    def clear(self) -> None:
        """Drop every cached value — the channels, the flat path
        functions and the batched walks' stores — and keep the counters.

        The plan's content cache stays warm, so the next pull is a cold
        walk that computes no response: the cold side of the timing
        baselines.
        """
        self._channels.clear()
        self.path_functions.clear()
        self.stores.clear()

    def _pull(self, key: tuple, make_step) -> list:
        """Per-step values of one channel, recomputing only the cone of
        the steps rebuilt since it last synced.

        ``make_step()`` returns the channel's ``compute_step(step,
        values)`` rule; it runs only when the pull has something to
        compute, so a clean pull builds nothing.  The plan must be
        refreshed already (see the module docstring).

        Exception-safe: values are computed into a private list and
        committed (together with the sync epoch) only when the whole
        cone succeeded, so a failing walk — e.g. a multirate graph
        rejecting tracked propagation — never half-updates the channel.
        """
        plan = self.plan
        channel = self._channels.get(key)
        if channel is None:
            values = _full_walk(plan, make_step(), kind="cold",
                                channel=key[0])
            self._channels[key] = _Channel(values, plan.epoch)
            self._full_walks.inc()
            self._steps_recomputed.inc(len(plan.steps))
            metric_inc("memo.full_walks")
            metric_inc("memo.steps_recomputed", len(plan.steps))
            return values
        rebuilt = plan.steps_rebuilt_since(channel.epoch)
        if len(rebuilt):
            compute_step = make_step()
            cone = plan.downstream_cone(rebuilt)
            with span("analysis.cone_pull", channel=key[0], cone=len(cone),
                      steps=len(plan.steps)):
                values = list(channel.values)
                for index in cone:
                    values[index] = compute_step(plan.steps[index], values)
            channel.values = values
            self._cone_recomputes.inc()
            self._steps_recomputed.inc(len(cone))
            self._steps_reused.inc(len(plan.steps) - len(cone))
            metric_inc("memo.cone_recomputes")
            metric_inc("memo.steps_recomputed", len(cone))
            metric_inc("memo.steps_reused", len(plan.steps) - len(cone))
        channel.epoch = plan.epoch
        return channel.values


_MEMO_ATTRIBUTE = "_noise_memo"


def plan_memo(system: SignalFlowGraph | CompiledPlan) -> NoiseMemo:
    """The (per-plan, lazily created) :class:`NoiseMemo` of a system.

    The memo lives on the plan object, so everything evaluating the same
    graph — optimizer rounds, Pareto budgets, campaign jobs — shares one
    cache, and it is reclaimed together with the plan.  A graph is
    compiled; a plan is taken as it stands, without another refresh.
    """
    plan = (system if isinstance(system, CompiledPlan)
            else compile_plan(system))
    memo = getattr(plan, _MEMO_ATTRIBUTE, None)
    if memo is None or memo.plan is not plan:
        memo = NoiseMemo(plan)
        setattr(plan, _MEMO_ATTRIBUTE, memo)
    return memo


def _store(plan: CompiledPlan, representation: str) -> _Store:
    """The working rows of ``plan``'s batched walks of a representation."""
    stores = plan_memo(plan).stores
    store = stores.get(representation)
    if store is None:
        store = stores[representation] = _Store()
    return store


# ----------------------------------------------------------------------
# Plan walks of the live configuration, one per noise representation
# ----------------------------------------------------------------------
def walk_psd(plan: CompiledPlan, n_psd: int) -> list:
    """Per-step ``K = 1`` :class:`DiscretePsd` stacks of the live plan
    (index-aligned), pulled from the memo."""
    return plan_memo(plan)._pull(("psd", n_psd), lambda: _rule(
        _StackedPsd(ConfigStack(plan, [{}]), n_psd)))


def walk_stats(plan: CompiledPlan) -> list:
    """Per-step ``K = 1`` :class:`NoiseStats` stacks of the live plan."""
    return plan_memo(plan)._pull(("stats",), lambda: _rule(
        _StackedStats(ConfigStack(plan, [{}]))))


def walk_tracked(plan: CompiledPlan, n_psd: int) -> list:
    """Per-step :class:`TrackedSpectrum` values of the live plan."""
    return plan_memo(plan)._pull(("tracked", n_psd),
                                 lambda: _rule(_Tracked(plan, n_psd)))


def walk_paths(plan: CompiledPlan, sources) -> list:
    """Per-step path transfer functions from ``sources`` (node names and
    edge keys), by a cold walk: the flat method caches what it reads."""
    return _full_walk(plan, _rule(_Paths(plan, sources)), kind="uncached")


def stats_row(stats: NoiseStats, config: int = 0) -> NoiseStats:
    """Entry ``config`` of a moment stack, as plain floats."""
    return NoiseStats(mean=float(stats.mean[config]),
                      variance=float(stats.variance[config]))


# ----------------------------------------------------------------------
# Batched plan walks (row-sparse over a configuration stack)
# ----------------------------------------------------------------------
def _walk_batch(plan: CompiledPlan, rep: _Stacked, representation: str,
                base: list, output: int):
    """Row-sparse batched walk; returns the output's full K-row value.

    ``base`` holds the memo's per-step ``K = 1`` values of the live
    plan.  Config ``k``'s row is computed only at the steps of its own
    cone (:meth:`ConfigStack.cone_mask`) and read from ``base``
    everywhere else — exact, because outside its cone config ``k``
    walks the live plan's operands.  Inside it, a row the previous
    walk kept is reused where it lies (:func:`_reuse`).

    The walk runs the plan's level groups, not its steps: per group it
    gathers each input port's rows in one take from the store, through
    ``slots`` (step, config) -> store row, which covers the rows computed
    so far, the reused ones and the memo's; applies the step rule once
    to the flattened rows; and the rule's value lands in store rows
    allocated for the group.  The returned value is a copy.
    """
    stack = rep.stack
    store = rep.store
    count = len(plan.steps)
    computes = stack.cone_mask()
    slots = np.repeat(np.arange(count, dtype=np.intp)[:, None],
                      stack.size, axis=1)
    reused = _reuse(plan, rep, computes, slots)
    kept = len(reused[0])
    if kept:
        computes = computes.copy()
        computes[reused] = False
    # The last walk's rows are this walk's to reuse or overwrite.
    store.slots = None
    keys = rep.begin(base, reused[0], slots[reused])
    computed = 0
    groups = 0
    with span("analysis.walk_batch", representation=representation,
              configs=stack.size, steps=count) as live:
        for group in plan.levels:
            positions, configs = np.nonzero(computes[group.indices])
            if not len(configs):
                continue
            rows = StepRows(group.indices[positions], configs,
                            group.steps[0].index
                            if len(group.steps) == 1 else None)
            inputs = [rep.gather(keys[port[0]], slots[port[positions],
                                                      configs])
                      for port in group.predecessors]
            key, start = rep.commit(_step(rep, group, rows, inputs))
            for index in group.indices.tolist():
                keys[index] = key
            slots[rows.steps, configs] = np.arange(start, start + rows.size)
            computed += rows.size
            groups += 1
        live.set(rows_computed=computed, rows_reused=kept, groups=groups)
        result = rep.gather(keys[output], slots[output])
    store.grid, store.epoch, store.slots = rep.grid, plan.epoch, slots
    store.columns = {deviation: config for config, deviation
                     in enumerate(stack.deviations)}
    plan_memo(plan).count_rows(computed, kept,
                               stack.size * count - computed - kept)
    return result


_NOTHING = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))


def _reuse(plan: CompiledPlan, rep: _Stacked, computes: np.ndarray,
           slots: np.ndarray) -> tuple:
    """The ``(steps, configs)`` of the rows a walk of ``rep`` takes from
    the previous one, whose ``slots`` it points at the kept store rows.

    Config ``k``'s row at step ``s`` is reused when the previous walk,
    on the same grid, kept a config of the same deviation from the live
    plan, and no step upstream of ``s`` (``s`` included) was rebuilt
    since that walk.  Then ``k`` restricted to ``s``'s upstream is the
    configuration the kept row was computed for, on the same operands,
    so the row keeps its bytes.
    """
    store = rep.store
    if store.slots is None or store.grid != rep.grid:
        return _NOTHING
    columns = np.array([store.columns.get(deviation, -1)
                        for deviation in rep.stack.deviations],
                       dtype=np.intp)
    fresh = np.zeros(len(plan.steps), dtype=bool)
    fresh[plan.downstream_cone(plan.steps_rebuilt_since(store.epoch))] = True
    steps, configs = np.nonzero(computes & (columns >= 0)
                                & ~fresh[:, None])
    slots[steps, configs] = store.slots[steps, columns[configs]]
    return steps, configs


def walk_psd_batch(plan: CompiledPlan, n_psd: int, stack: ConfigStack,
                   output: str) -> DiscretePsd:
    """PSD propagation of a whole configuration stack, at one output.

    Row ``k`` of the returned stacked :class:`DiscretePsd` is
    bit-identical to :func:`walk_psd` after requantizing the plan to
    configuration ``k``: both run the same rules, and the algebra applies
    every operation row by row along the leading config axis.  The walk
    is row-sparse (see :func:`_walk_batch`), so a stack of one-key
    deltas costs the sum of the candidates' cones, not ``K x steps``
    rows, less the rows the previous walk kept for it.  The stack must
    have been resolved against the plan's current spec state (every
    in-repo caller constructs it immediately before walking).
    """
    return _walk_batch(plan, _StackedPsd(stack, n_psd, _store(plan, "psd")),
                       "psd", walk_psd(plan, n_psd), plan.index_of[output])


def walk_stats_batch(plan: CompiledPlan, stack: ConfigStack,
                     output: str) -> NoiseStats:
    """Moment propagation of a whole configuration stack, at one output.

    Returns a :class:`NoiseStats` whose ``mean`` / ``variance`` fields
    are ``(K,)`` arrays (the dataclass arithmetic is elementwise, so
    the step rule applies unchanged).  Entry ``k`` is
    bit-identical to :func:`walk_stats` after requantizing the plan to
    configuration ``k``; row sparsity mirrors :func:`walk_psd_batch`.
    """
    return _walk_batch(plan, _StackedStats(stack, _store(plan, "stats")),
                       "stats", walk_stats(plan), plan.index_of[output])

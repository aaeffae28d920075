"""Shared graph-walking machinery of the analytical evaluation engines.

All three analytical methods traverse the acyclic signal-flow graph in
topological order, maintaining one noise representation per node output
(moments, PSD, or per-source tracked spectra) and injecting each node's own
quantization-noise source at its output.  The only thing that changes
between methods is the *representation* and its propagation rules, which
are already encapsulated in the node classes; this module factors the
traversal itself.

The traversal runs over a :class:`~repro.sfg.plan.CompiledPlan`:
validation, topological ordering and noise-source discovery happen once at
plan compilation, and each walk simply replays the index-based schedule.
Per-node frequency responses (block responses and IIR noise-shaping
responses) come from the plan's memoized cache, so repeated evaluations of
the same graph — the word-length optimizer's inner loop, the execution-time
benchmark — skip every FFT-sized computation after the first call.

Incremental re-evaluation
-------------------------
On top of the response cache, each plan carries one :class:`NoiseMemo`: a
pull-based cache of the *propagated* per-node representations themselves,
one channel per ``(representation, n_bins)``.  A pull first folds pending
spec/coefficient mutations into the plan (``plan.refresh()``, which stamps
the edited steps with a new plan epoch), then recomputes only the
downstream cone of the steps dirtied since the channel last synced,
reusing every other node's cached value as-is.  Because a cone recompute
replays exactly the same operations the full walk would, on bit-identical
cached inputs, the result is bit-identical to a cold walk — the
``incremental`` check of :func:`repro.verify.differential.verify_graph`
fuzzes that equivalence, and ``ARCHITECTURE.md`` spells out the exactness
argument.  This is what turns the word-length optimizer's one-node
candidate edits from O(nodes) walks into O(depth) cone updates.

The batched walks pull the scalar memo as their baseline and are
row-sparse: config ``k``'s row is computed only inside its own cone (the
downstream cone of the steps where its word lengths deviate from the
plan's live configuration) and copied from the memo everywhere else, so
a stack of one-key deltas costs the sum of the candidates' cones
(bit-identical by the batched-walk row contract pinned in
``tests/test_analysis_batch.py``).

Memoization is on by default and exact, so there is normally no reason to
turn it off; :func:`memoization_disabled` exists for honest cold-cache
baselines (timing harnesses, the differential check's reference side) and
restores the previous state on exit.  The generic :func:`walk` with
user-supplied callbacks is never memoized: arbitrary callbacks are opaque,
so there is no sound cache key for them.

Returned representations are shared with the memo: treat them as
immutable (which every representation class already is by convention).
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from functools import partial
from typing import Callable

import numpy as np

from repro.fixedpoint.noise_model import NoiseStats
from repro.obs import MetricsRegistry, metric_inc, span
from repro.psd.batch import PsdStack
from repro.psd.spectrum import DiscretePsd
from repro.psd.propagation import TrackedSpectrum
from repro.sfg.graph import SignalFlowGraph
from repro.sfg.nodes import (
    AddNode,
    DownsampleNode,
    IirNode,
    Node,
    OutputNode,
    UpsampleNode,
    _LtiMixin,
)
from repro.sfg.plan import CompiledPlan, ConfigStack, compile_plan, walk_plan


# ----------------------------------------------------------------------
# Memoization switch
# ----------------------------------------------------------------------
# A stack rather than a flag so disabled regions nest; the top entry is
# the current state.
_MEMO_STATE: list[bool] = [True]


def memoization_enabled() -> bool:
    """Whether walks may pull from (and update) the per-plan NoiseMemo."""
    return _MEMO_STATE[-1]


@contextmanager
def memoization_disabled():
    """Force full cold walks for the duration of the block.

    Used by the honest baselines: the differential ``incremental`` check's
    reference side and the timing harnesses and tests that must not
    measure cache hits (batched walks then compute every row at every
    step).  Results are bit-identical either way; only the amount of
    recomputation differs.
    """
    _MEMO_STATE.append(False)
    try:
        yield
    finally:
        _MEMO_STATE.pop()


# ----------------------------------------------------------------------
# Per-step evaluation rules (shared by cold walks and memo pulls)
# ----------------------------------------------------------------------
def _psd_inputs(step, values) -> list:
    """Predecessor PSDs of a step, with fanout-tap noise injected.

    A tapped edge re-quantizes the value it carries, so its white PQN
    noise enters *before* the node's propagation rule — an IIR target
    shapes it with the full block transfer function, not the internal
    noise-shaping response.  No-op taps (``tap.noise is None``) are
    skipped entirely, keeping tap-free plans bitwise untouched.
    """
    inputs = [values[i] for i in step.predecessors]
    taps = step.edge_taps
    if taps is not None:
        for port, tap in enumerate(taps):
            if tap is not None and tap.noise is not None:
                psd = inputs[port]
                inputs[port] = psd + DiscretePsd.white(tap.noise, psd.n_bins)
    return inputs


def _psd_step(plan: CompiledPlan, n_psd: int, step, values) -> DiscretePsd:
    node = step.node
    if step.is_source:
        acc = DiscretePsd.zero(n_psd)
    elif isinstance(node, _LtiMixin):
        # Same rule as Node.propagate_psd, but the block response is
        # sampled once per (node, bins) and memoized on the plan.  The
        # input PSD may live on fewer bins than n_psd when the signal
        # was decimated upstream.
        (psd,) = _psd_inputs(step, values)
        acc = psd.filtered(plan.block_response(step, psd.n_bins))
    else:
        acc = node.propagate_psd(_psd_inputs(step, values), n_psd)
    if step.noise is not None:
        acc = acc + plan.shaped_noise_psd(step, acc.n_bins)
    return acc


def _stats_inputs(step, values) -> list:
    inputs = [values[i] for i in step.predecessors]
    taps = step.edge_taps
    if taps is not None:
        for port, tap in enumerate(taps):
            if tap is not None and tap.noise is not None:
                inputs[port] = inputs[port] + tap.noise
    return inputs


def _stats_step(plan: CompiledPlan, step, values) -> NoiseStats:
    node = step.node
    if step.is_source:
        acc = NoiseStats(0.0, 0.0)
    elif isinstance(node, _LtiMixin):
        (stats,) = _stats_inputs(step, values)
        energy, dc = plan.block_gains(step)
        acc = NoiseStats(mean=stats.mean * dc,
                         variance=stats.variance * energy)
    else:
        acc = node.propagate_stats(_stats_inputs(step, values))
    if step.noise is not None:
        acc = acc + plan.shaped_noise_stats(step)
    return acc


def _tracked_inputs(step, values, n_psd: int) -> list:
    inputs = [values[i] for i in step.predecessors]
    taps = step.edge_taps
    if taps is not None:
        for port, tap in enumerate(taps):
            if tap is not None and tap.noise is not None:
                inputs[port] = inputs[port] + TrackedSpectrum.from_source(
                    tap.key, tap.noise, n_psd)
    return inputs


def _tracked_step(plan: CompiledPlan, n_psd: int, step,
                  values) -> TrackedSpectrum:
    node = step.node
    if step.is_source:
        acc = TrackedSpectrum.zero(n_psd)
    elif isinstance(node, _LtiMixin):
        (tracked,) = _tracked_inputs(step, values, n_psd)
        acc = tracked.filtered(plan.block_response(step, n_psd))
    else:
        acc = node.propagate_tracked(_tracked_inputs(step, values, n_psd),
                                     n_psd)
    if step.noise is not None:
        acc = acc + plan.shaped_noise_tracked(step, n_psd)
    return acc


def _full_walk(plan: CompiledPlan, compute_step) -> list:
    """Cold walk: evaluate every step, no cache involved."""
    plan.refresh()
    with span("analysis.walk", kind="uncached", steps=len(plan.steps)):
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
    channel builds, ``cone_recomputes`` counts pulls that re-evaluated a
    dirty cone, and ``steps_recomputed`` / ``steps_reused`` count the
    per-step work either way — the word-length optimizer surfaces the
    first two in :class:`~repro.systems.wordlength.WordLengthResult`.
    The batched walks that use the memo as their baseline add
    ``rows_computed`` (config rows a walk evaluated) and ``rows_copied``
    (config rows served from the memo's value instead).

    The counters are backed by a private (always-on) metrics registry;
    the attribute names remain the public surface as read-only views,
    and every increment is mirrored into the process-wide observability
    session (`repro.obs`) under ``memo.*`` when one is enabled.
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
        self._rows_copied = self.metrics.counter("memo.rows_copied")

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
                "rows_copied": self._rows_copied.value}

    def count_rows(self, computed: int, copied: int) -> None:
        """Record one batched walk's row split."""
        self._rows_computed.inc(computed)
        self._rows_copied.inc(copied)
        metric_inc("memo.rows_computed", computed)
        metric_inc("memo.rows_copied", copied)

    def _pull(self, key: tuple, compute_step) -> list:
        """Per-step values of one channel, recomputing only dirty cones.

        Exception-safe: values are computed into a private list and
        committed (together with the sync epoch) only when the whole
        cone succeeded, so a failing walk — e.g. a multirate graph
        rejecting tracked propagation — never half-updates the channel.
        """
        plan = self.plan
        plan.refresh()
        channel = self._channels.get(key)
        if channel is None:
            with span("analysis.walk", kind="cold", channel=key[0],
                      steps=len(plan.steps)):
                values: list = [None] * len(plan.steps)
                for step in plan.steps:
                    values[step.index] = compute_step(step, values)
            self._channels[key] = _Channel(values, plan.epoch)
            self._full_walks.inc()
            self._steps_recomputed.inc(len(plan.steps))
            metric_inc("memo.full_walks")
            metric_inc("memo.steps_recomputed", len(plan.steps))
            return values
        dirty = plan.steps_dirty_since(channel.epoch)
        if len(dirty):
            cone = plan.downstream_cone(dirty)
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

    def psd(self, n_psd: int) -> list:
        """Per-step :class:`DiscretePsd` values (index-aligned)."""
        return self._pull(("psd", n_psd), partial(_psd_step, self.plan, n_psd))

    def stats(self) -> list:
        """Per-step :class:`NoiseStats` values (index-aligned)."""
        return self._pull(("stats",), partial(_stats_step, self.plan))

    def tracked(self, n_psd: int) -> list:
        """Per-step :class:`TrackedSpectrum` values (index-aligned)."""
        return self._pull(("tracked", n_psd),
                          partial(_tracked_step, self.plan, n_psd))


_MEMO_ATTRIBUTE = "_noise_memo"


def plan_memo(system: SignalFlowGraph | CompiledPlan) -> NoiseMemo:
    """The (per-plan, lazily created) :class:`NoiseMemo` of a system.

    The memo lives on the plan object, so everything evaluating the same
    graph — optimizer rounds, Pareto budgets, campaign jobs — shares one
    cache, and it is reclaimed together with the plan.
    """
    plan = compile_plan(system)
    memo = getattr(plan, _MEMO_ATTRIBUTE, None)
    if memo is None or memo.plan is not plan:
        memo = NoiseMemo(plan)
        setattr(plan, _MEMO_ATTRIBUTE, memo)
    return memo


def walk(system: SignalFlowGraph | CompiledPlan, n_bins: int,
         zero: Callable[[Node], object],
         propagate: Callable[[Node, list], object],
         inject: Callable[[Node, NoiseStats, object], object],
         ) -> dict[str, object]:
    """Generic noise-propagation traversal (node-level callbacks).

    Never memoized: the callbacks are opaque, so no sound cache key
    exists.  The typed walks below are the memoized fast paths.

    Parameters
    ----------
    system:
        Acyclic signal-flow graph, or a plan compiled from one; a bare
        graph is compiled (and the compiled plan cached per graph), so
        validation happens once per structure, not once per walk.
    n_bins:
        Number of PSD bins (unused by moment-only representations but part
        of the shared signature).
    zero:
        ``zero(node)`` returns the representation of "no noise" for a node
        with no predecessors.
    propagate:
        ``propagate(node, input_representations)`` applies the node's
        propagation rule.
    inject:
        ``inject(node, stats, representation)`` adds the node's own noise
        source (already known to be non-trivial) to the representation at
        the node output.

    Returns
    -------
    dict
        Mapping from node name to the noise representation at its output.
    """
    plan = compile_plan(system)
    return walk_plan(
        plan,
        zero=lambda step: zero(step.node),
        propagate=lambda step, inputs: propagate(step.node, inputs),
        inject=lambda step, acc: inject(step.node, step.noise, acc),
    )


# ----------------------------------------------------------------------
# Cached plan walks, one per noise representation
# ----------------------------------------------------------------------
def walk_psd(plan: CompiledPlan, n_psd: int) -> dict[str, DiscretePsd]:
    """PSD propagation over a compiled plan, incremental when memoized."""
    if memoization_enabled():
        values = plan_memo(plan).psd(n_psd)
    else:
        values = _full_walk(plan, partial(_psd_step, plan, n_psd))
    return {step.name: values[step.index] for step in plan.steps}


def walk_stats(plan: CompiledPlan) -> dict[str, NoiseStats]:
    """Moment propagation over a compiled plan, incremental when memoized."""
    if memoization_enabled():
        values = plan_memo(plan).stats()
    else:
        values = _full_walk(plan, partial(_stats_step, plan))
    return {step.name: values[step.index] for step in plan.steps}


def walk_tracked(plan: CompiledPlan, n_psd: int) -> dict[str, TrackedSpectrum]:
    """Per-source tracked propagation, incremental when memoized."""
    if memoization_enabled():
        values = plan_memo(plan).tracked(n_psd)
    else:
        values = _full_walk(plan, partial(_tracked_step, plan, n_psd))
    return {step.name: values[step.index] for step in plan.steps}


# ----------------------------------------------------------------------
# Batched plan walks (row-sparse over a configuration stack)
# ----------------------------------------------------------------------
def _inject(acc, own, noise, fields: tuple[str, ...]):
    """``acc + own``, except that configs whose source is silent (zero
    ``noise`` moments) keep ``acc`` untouched.

    The scalar walk skips a silent source instead of adding zeros, and
    adding zeros would flip a ``-0.0`` mean to ``+0.0``.
    """
    means, variances = noise
    quiet = ~((variances > 0.0) | (means != 0.0))
    total = acc + own
    if quiet.any():
        for name in fields:
            getattr(total, name)[quiet] = getattr(acc, name)[quiet]
    return total


def _psd_batch_inputs(stack: ConfigStack, step, rows, inputs) -> list:
    """Predecessor PSD stacks with per-config fanout-tap noise injected
    (mirrors :func:`_psd_inputs` row by row)."""
    noise = stack.edge_noise(step, rows)
    if noise:
        inputs = list(inputs)
        for port, moments in noise.items():
            psd = inputs[port]
            inputs[port] = _inject(psd, PsdStack.white(*moments, psd.n_bins),
                                   moments, ("ac", "mean"))
    return inputs


def _psd_batch_step(n_psd: int, stack: ConfigStack, step, rows,
                    inputs) -> PsdStack:
    node = step.node
    inputs = _psd_batch_inputs(stack, step, rows, inputs)
    if step.is_source:
        acc = PsdStack.zero(len(rows), n_psd)
    elif isinstance(node, _LtiMixin):
        (psd,) = inputs
        acc = psd.filtered(stack.block_response(step, psd.n_bins, rows))
    elif isinstance(node, AddNode):
        acc = PsdStack.zero(len(rows), inputs[0].n_bins)
        for sign, psd in zip(node.signs, inputs):
            acc = acc + psd.scaled(sign)
    elif isinstance(node, OutputNode):
        (psd,) = inputs
        acc = psd.copy()
    elif isinstance(node, DownsampleNode):
        (psd,) = inputs
        acc = psd.downsampled(node.factor)
    elif isinstance(node, UpsampleNode):
        (psd,) = inputs
        acc = psd.upsampled(node.factor)
    else:
        raise NotImplementedError(
            f"batched PSD propagation does not support node type "
            f"{type(node).__name__}")
    noise = stack.noise(step, rows)
    if noise is not None:
        own = PsdStack.white(*noise, acc.n_bins)
        if isinstance(node, IirNode):
            own = own.filtered(stack.shaping_response(step, acc.n_bins,
                                                      rows))
        acc = _inject(acc, own, noise, ("ac", "mean"))
    return acc


def _stats_batch_inputs(stack: ConfigStack, step, rows, inputs) -> list:
    noise = stack.edge_noise(step, rows)
    if noise:
        inputs = list(inputs)
        for port, (means, variances) in noise.items():
            inputs[port] = _inject(
                inputs[port], NoiseStats(mean=means, variance=variances),
                (means, variances), ("mean", "variance"))
    return inputs


def _stats_batch_step(stack: ConfigStack, step, rows,
                      inputs) -> NoiseStats:
    node = step.node
    inputs = _stats_batch_inputs(stack, step, rows, inputs)
    if step.is_source:
        acc = NoiseStats(mean=np.zeros(len(rows)),
                         variance=np.zeros(len(rows)))
    elif isinstance(node, _LtiMixin):
        (stats,) = inputs
        energy, dc = stack.block_gains(step, rows)
        acc = NoiseStats(mean=stats.mean * dc,
                         variance=stats.variance * energy)
    else:
        acc = node.propagate_stats(inputs)
    noise = stack.noise(step, rows)
    if noise is not None:
        means, variances = noise
        if isinstance(node, IirNode):
            energy, dc = stack.shaping_gains(step, rows)
            own = NoiseStats(mean=means * dc, variance=variances * energy)
        else:
            own = NoiseStats(mean=means, variance=variances)
        acc = _inject(acc, own, noise, ("mean", "variance"))
    return acc


def _gather_psd(value, value_rows, scalar: DiscretePsd, rows) -> PsdStack:
    """The ``rows`` of one step's PSD stack: computed rows where the walk
    has them, the memo's scalar value everywhere else.

    ``value_rows`` (the rows computed at the step) is a subset of
    ``rows``: cones are downstream-closed.
    """
    if value_rows is not None and len(value_rows) == len(rows):
        return value
    # broadcast_to keeps the scalar bins as a read-only view: every
    # PsdStack operation allocates fresh arrays, so sharing is safe.
    ac = np.broadcast_to(scalar.ac, (len(rows), scalar.n_bins))
    mean = np.full(len(rows), scalar.mean)
    if value_rows is not None:
        positions = np.searchsorted(rows, value_rows)
        ac = ac.copy()
        ac[positions] = value.ac
        mean[positions] = value.mean
    return PsdStack(ac, mean)


def _gather_stats(value, value_rows, scalar: NoiseStats, rows) -> NoiseStats:
    """Moment counterpart of :func:`_gather_psd`."""
    if value_rows is not None and len(value_rows) == len(rows):
        return value
    mean = np.full(len(rows), scalar.mean)
    variance = np.full(len(rows), scalar.variance)
    if value_rows is not None:
        positions = np.searchsorted(rows, value_rows)
        mean[positions] = value.mean
        variance[positions] = value.variance
    return NoiseStats(mean=mean, variance=variance)


def _walk_batch(plan: CompiledPlan, stack: ConfigStack, representation: str,
                base, compute_step, gather, output: int):
    """Row-sparse batched walk; returns the output's full K-row value.

    With a memo baseline (``base``: the scalar per-step values of the
    live plan), config ``k``'s row is computed only at the steps of its
    own cone (:meth:`ConfigStack.cone_rows`) and copied from ``base``
    everywhere else — exact, because outside its cone config ``k``
    walks the live plan's operands.  Without one, every row is computed
    at every step (the dense cold walk).
    """
    everything = np.arange(stack.size)
    memoized = base is not None
    if memoized:
        rows = stack.cone_rows()
    else:
        rows = [everything] * len(plan.steps)
        base = [None] * len(plan.steps)
    values: list = [None] * len(plan.steps)
    computed = 0
    with span("analysis.walk_batch", representation=representation,
              configs=stack.size, steps=len(plan.steps)) as live:
        for step in plan.steps:
            selected = rows[step.index]
            if selected is None:
                continue
            inputs = [gather(values[i], rows[i], base[i], selected)
                      for i in step.predecessors]
            values[step.index] = compute_step(step, selected, inputs)
            computed += len(selected)
        live.set(rows_computed=computed)
        result = gather(values[output], rows[output], base[output],
                        everything)
    if memoized:
        plan_memo(plan).count_rows(computed,
                                   stack.size * len(plan.steps) - computed)
    return result


def walk_psd_batch(plan: CompiledPlan, n_psd: int, stack: ConfigStack,
                   output: str) -> PsdStack:
    """PSD propagation of a whole configuration stack, at one output.

    Row ``k`` of the returned :class:`PsdStack` is bit-identical to the
    scalar :func:`walk_psd` of configuration ``k``: each operation applies
    the same operand pairs in the same order, only vectorized along the
    leading config axis, and the per-node responses come from the same
    plan cache the scalar walk uses.  When memoization is enabled the
    walk is row-sparse (see :func:`_walk_batch`), so a stack of one-key
    deltas costs the sum of the candidates' cones, not ``K x steps``
    rows.  The stack must have been resolved against the plan's current
    spec state (every in-repo caller constructs it immediately before
    walking).
    """
    base = plan_memo(plan).psd(n_psd) if memoization_enabled() else None
    return _walk_batch(plan, stack, "psd", base,
                       partial(_psd_batch_step, n_psd, stack), _gather_psd,
                       plan.index_of[output])


def walk_stats_batch(plan: CompiledPlan, stack: ConfigStack,
                     output: str) -> NoiseStats:
    """Moment propagation of a whole configuration stack, at one output.

    Returns a :class:`NoiseStats` whose ``mean`` / ``variance`` fields
    are ``(K,)`` arrays (the dataclass arithmetic is elementwise, so
    every propagation rule applies unchanged).  Entry ``k`` is
    bit-identical to the scalar :func:`walk_stats` of configuration
    ``k``; row sparsity mirrors :func:`walk_psd_batch`.
    """
    base = plan_memo(plan).stats() if memoization_enabled() else None
    return _walk_batch(plan, stack, "stats", base,
                       partial(_stats_batch_step, stack), _gather_stats,
                       plan.index_of[output])

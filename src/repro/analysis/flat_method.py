"""Classical flat analytical accuracy evaluation (Eq. 4 of the paper).

The flat method considers the *flattened* system: for every quantization
noise source ``b_i`` it derives the path transfer function ``h_i`` from
the source to the output and evaluates

    ``E[b_y^2] = sum_i K_i sigma_i^2  +  sum_i sum_j L_ij mu_i mu_j``

with ``K_i = sum_k h_i(k)^2`` (Eq. 5) and
``L_ij = (sum_k h_i(k)) (sum_l h_j(l))`` (Eq. 6, time-invariant case).

The implementation composes symbolic :class:`TransferFunction` objects
along every source-to-output path by dynamic programming over the
topological order, so re-convergent paths are combined exactly (parallel
addition of transfer functions) — this is the "accurate but expensive"
reference analytical method whose preprocessing the hierarchical methods
try to avoid.  Only single-rate LTI graphs are supported, as in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.analysis._engine import (
    NoiseMemo,
    memoization_enabled,
    plan_memo,
    stats_row,
)
from repro.fixedpoint.noise_model import NoiseStats
from repro.lti.transfer_function import TransferFunction
from repro.sfg.graph import SignalFlowGraph, reject_multirate
from repro.sfg.nodes import AddNode, IirNode, Node, OutputNode, _LtiMixin
from repro.sfg.plan import (
    CompiledPlan,
    ConfigStack,
    compile_plan,
    parse_edge_key,
)


def source_path_functions(system: SignalFlowGraph | CompiledPlan,
                          output: str | None = None,
                          sources=None) -> dict[str, TransferFunction]:
    """Path transfer function from every noise source to the output.

    Returns a mapping ``{source name: h_i}``.  A node generates a source
    when its quantization spec is enabled; for IIR nodes the source is
    pre-shaped by ``1 / A(z)`` (the quantizer lives inside the
    recursion).  A source may also be a ``"source->target"`` edge key: a
    fanout tap's noise enters at the *target's* input port, so its path
    function starts as the identity there and is shaped by the target's
    full block transfer function (not an IIR's internal noise-shaping
    response).

    Parameters
    ----------
    system, output:
        Graph (or plan) and the output node to reach.
    sources:
        Optional explicit set of source names (node names and/or edge
        keys).  The default is the plan's current noise-generating steps
        plus its noise-injecting fanout taps; the flat evaluations pass
        the union of their stack's noisy sources instead (the same set
        for the one-config stack of :func:`evaluate_flat`).
    """
    plan = compile_plan(system)
    output_name = plan.resolve_output(output)
    if sources is None:
        sources = ({step.name for step in plan.noise_steps}
                   | {tap.key for _, _, tap in plan.active_edge_taps()})
    return _path_functions(plan, output_name, sources)


def _path_functions(plan: CompiledPlan, output_name: str,
                    sources) -> dict[str, TransferFunction]:
    """:func:`source_path_functions` on the plan as it stands (no
    refresh), memoized per coefficient fingerprint."""
    cache = key = None
    if memoization_enabled():
        # Path functions depend only on the coefficient fingerprint (the
        # transfer behaviour), not on the data-path word lengths, so the
        # optimizer's requantize loop keeps hitting one entry.
        cache = plan_memo(plan).path_functions
        key = (output_name, frozenset(sources),
               plan.coefficient_fingerprint())
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            return dict(cached)

    reject_multirate(plan.graph, "flat")
    # Edge sources inject an identity path function at their target's
    # input port; resolved up front so the DP below stays a plain walk.
    # Injection is driven by the requested source set, not the plan's
    # live tap state, so batch groups can request a stack-wide union.
    edge_injections: dict[int, dict[int, str]] = {}
    for name in sources:
        if name in plan.index_of:
            continue
        target_index, port = plan._resolve_edge(*parse_edge_key(name))
        edge_injections.setdefault(target_index, {})[port] = name

    # paths[index] maps source name -> transfer function from the source to
    # this node's output.
    paths: list[dict[str, TransferFunction]] = [None] * len(plan.steps)
    for step in plan.steps:
        node = step.node
        if step.is_source:
            accumulated: dict[str, TransferFunction] = {}
        else:
            input_maps = [paths[i] for i in step.predecessors]
            injections = edge_injections.get(step.index)
            if injections:
                input_maps = list(input_maps)
                for port, source_key in injections.items():
                    tapped = dict(input_maps[port])
                    tapped[source_key] = TransferFunction.identity()
                    input_maps[port] = tapped
            accumulated = _propagate_paths(node, input_maps, plan, step)
        if step.name in sources:
            shaping = (plan.shaping_tf(step)
                       if isinstance(node, IirNode)
                       else TransferFunction.identity())
            if step.name in accumulated:
                accumulated[step.name] = accumulated[step.name].parallel(shaping)
            else:
                accumulated[step.name] = shaping
        paths[step.index] = accumulated
    result = paths[plan.index_of[output_name]]
    if cache is not None:
        cache[key] = dict(result)
        while len(cache) > NoiseMemo.PATH_CACHE_LIMIT:
            cache.popitem(last=False)
    return result


def evaluate_flat(system: SignalFlowGraph | CompiledPlan,
                  output: str | None = None) -> NoiseStats:
    """Estimate the output-noise moments with the flat method (Eq. 4).

    The one-configuration case of :func:`evaluate_flat_batch`: a stack of
    the live plan with no deltas, read back as plain floats.
    """
    plan = compile_plan(system)
    return stats_row(_evaluate_stack(plan, ConfigStack(plan, [{}]),
                                     output))


def evaluate_flat_batch(system: SignalFlowGraph | CompiledPlan,
                        assignments,
                        output: str | None = None) -> NoiseStats:
    """Estimate the output moments of a stack of word-length assignments.

    The path transfer functions only depend on the effective coefficient
    precisions, so the stack is grouped by coefficient signature: within a
    group the (expensive) symbolic path composition runs once and only the
    cheap per-source moment sums are repeated per config.  When the graph
    pins ``coefficient_fractional_bits`` the whole stack forms one group.

    Returns a :class:`NoiseStats` whose ``mean`` / ``variance`` fields are
    ``(K,)`` arrays; entry ``k`` is bit-identical to
    ``evaluate_flat(plan)`` after ``plan.requantize(assignments[k])``.
    """
    plan = compile_plan(system)
    return _evaluate_stack(plan, ConfigStack(plan, assignments), output)


def _evaluate_stack(plan: CompiledPlan, stack: ConfigStack,
                    output: str | None) -> NoiseStats:
    """Per-config output moments of a stack, one coefficient group at a
    time.

    The group sharing the live plan's coefficient signature runs on the
    plan as it stands.  Every other group requantizes the plan to its
    representative config, which fixes every coefficient precision of the
    group; the caller's quantization state is restored afterwards.
    """
    output_name = plan.resolve_output(output)
    noise_by_name = {}
    for step in plan.steps:
        noise = stack.noise(step)
        if noise is not None:
            noise_by_name[step.name] = noise
    noise_by_name.update(stack.edge_noise_sources())
    means = np.zeros(stack.size)
    variances = np.zeros(stack.size)
    groups: dict[tuple, list[int]] = {}
    for config, signature in enumerate(stack.coefficient_signatures()):
        groups.setdefault(signature, []).append(config)
    live = groups.pop(stack.live_coefficient_signature(), None)
    if live:
        _evaluate_group(plan, output_name, noise_by_name, live, means,
                        variances)
    if groups:
        with plan.preserve_quantization():
            for members in groups.values():
                # allow_enable: a stack config may legitimately enable a
                # node the live plan leaves unquantized.
                plan.requantize(stack.resolved(members[0]),
                                allow_enable=True)
                _evaluate_group(plan, output_name, noise_by_name, members,
                                means, variances)
    return NoiseStats(mean=means, variance=variances)


def _evaluate_group(plan: CompiledPlan, output_name: str,
                    noise_by_name: dict, members: list[int],
                    means: np.ndarray, variances: np.ndarray) -> None:
    """Eq. 4 for the configs of one coefficient group, on the plan as it
    stands (it carries the group's coefficient precisions)."""
    # Sources (steps and fanout taps) noisy for some member.
    noisy_names = {
        name for name, (source_means, source_variances)
        in noise_by_name.items()
        if any(source_variances[k] != 0.0 or source_means[k] != 0.0
               for k in members)}
    path_functions = _path_functions(plan, output_name, noisy_names)
    energies = {name: tf.energy() for name, tf in path_functions.items()}
    dc_sums = {name: tf.coefficient_sum()
               for name, tf in path_functions.items()}
    for k in members:
        # Schedule order over this config's own noisy sources.
        total_variance = 0.0
        mean_contributions = []
        for name in path_functions:
            source_means, source_variances = noise_by_name[name]
            if source_variances[k] == 0.0 and source_means[k] == 0.0:
                continue
            total_variance += source_variances[k] * energies[name]  # K_i s_i^2
            mean_contributions.append(source_means[k] * dc_sums[name])
        # The double sum over L_ij mu_i mu_j is exactly the square of the
        # sum of the propagated means (Eq. 6 with time-invariant paths).
        means[k] = float(np.sum(mean_contributions))
        variances[k] = total_variance


def _propagate_paths(node: Node,
                     input_maps: list[dict[str, TransferFunction]],
                     plan: CompiledPlan, step) -> dict[str, TransferFunction]:
    """Apply a node's transfer behaviour to per-source path functions."""
    if isinstance(node, OutputNode):
        (single,) = input_maps
        return dict(single)
    if isinstance(node, AddNode):
        merged: dict[str, TransferFunction] = {}
        for sign, source_map in zip(node.signs, input_maps):
            for source, tf in source_map.items():
                contribution = tf.scaled(sign)
                if source in merged:
                    merged[source] = merged[source].parallel(contribution)
                else:
                    merged[source] = contribution
        return merged
    if isinstance(node, _LtiMixin):
        (single,) = input_maps
        block_tf = plan.block_tf(step)
        return {source: tf.cascade(block_tf) for source, tf in single.items()}
    raise NotImplementedError(
        f"flat method cannot propagate through node type "
        f"{type(node).__name__}")


"""Classical flat analytical accuracy evaluation (Eq. 4 of the paper).

The flat method considers the *flattened* system: for every quantization
noise source ``b_i`` it derives the path transfer function ``h_i`` from
the source to the output and evaluates

    ``E[b_y^2] = sum_i K_i sigma_i^2  +  sum_i sum_j L_ij mu_i mu_j``

with ``K_i = sum_k h_i(k)^2`` (Eq. 5) and
``L_ij = (sum_k h_i(k)) (sum_l h_j(l))`` (Eq. 6, time-invariant case).

The path functions come from the analytical engine's one step rule run
on per-source symbolic :class:`TransferFunction` maps: blocks cascade,
adders scale by their signs and combine re-convergent paths exactly
(parallel addition of transfer functions).  This is the "accurate but
expensive" reference analytical method whose preprocessing the
hierarchical methods try to avoid.  Only single-rate LTI graphs are
supported, as in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.analysis._engine import NoiseMemo, plan_memo, stats_row, walk_paths
from repro.fixedpoint.noise_model import NoiseStats
from repro.lti.transfer_function import TransferFunction
from repro.sfg.graph import SignalFlowGraph, reject_multirate
from repro.sfg.plan import CompiledPlan, ConfigStack, compile_plan


def _path_functions(plan: CompiledPlan, output_name: str,
                    sources) -> dict[str, TransferFunction]:
    """Path transfer function from each of ``sources`` to the output.

    ``sources`` holds node names and ``"source->target"`` edge keys.  A
    node's path starts at its output, pre-shaped by ``1 / A(z)`` for an
    IIR node (the quantizer lives inside the recursion); a fanout tap's
    starts at its target's input port, so the target's full block
    transfer function shapes it.  Runs on the plan as it stands (no
    refresh), memoized per coefficient fingerprint.
    """
    # Path functions depend only on the coefficient fingerprint (the
    # transfer behaviour), not on the data-path word lengths, so the
    # optimizer's requantize loop keeps hitting one entry.
    cache = plan_memo(plan).path_functions
    key = (output_name, frozenset(sources), plan.coefficient_fingerprint())
    cached = cache.get(key)
    if cached is not None:
        cache.move_to_end(key)
        return dict(cached)
    reject_multirate(plan.graph, "flat")
    result = walk_paths(plan, sources)[plan.index_of[output_name]]
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
        noise = stack.noise(stack.step_rows(step))
        if noise is not None:
            noise_by_name[step.name] = noise
    noise_by_name.update(stack.edge_noise_sources())
    means = np.zeros(stack.size)
    variances = np.zeros(stack.size)
    groups = stack.coefficient_groups()
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

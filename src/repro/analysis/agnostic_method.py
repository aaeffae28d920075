"""Hierarchical, PSD-agnostic accuracy evaluation.

This is the state-of-the-art baseline the paper compares against
(Section II, Fig. 1.b "blind propagation of mu, sigma^2"): the system is
cut at block boundaries and only the first two moments of the quantization
noise cross each boundary.  Inside a block the propagation rule treats the
incoming noise as *white*:

* LTI block ``h``:      ``sigma_out^2 = sigma_in^2 * sum_k h(k)^2``,
  ``mu_out = mu_in * sum_k h(k)``;
* adder:                moments add;
* constant gain ``g``:  ``sigma^2 *= g^2``, ``mu *= g``;
* decimator:            per-sample moments unchanged;
* expander (by L):      ``sigma^2 /= L``, ``mu /= L``.

The method is exact when the noise entering every block really is white
(single-block systems) and exhibits the large errors reported in Table II
of the paper whenever an upstream block has colored the noise.
"""

from __future__ import annotations

from repro.analysis._engine import stats_row, walk_stats, walk_stats_batch
from repro.fixedpoint.noise_model import NoiseStats
from repro.sfg.graph import SignalFlowGraph
from repro.sfg.plan import CompiledPlan, ConfigStack, compile_plan


def evaluate_agnostic(system: SignalFlowGraph | CompiledPlan,
                      output: str | None = None) -> NoiseStats:
    """Estimate the output-noise moments with the PSD-agnostic method.

    Parameters
    ----------
    system:
        Acyclic signal-flow graph with per-node
        :class:`~repro.sfg.nodes.QuantizationSpec` assignments, or a
        :class:`CompiledPlan` compiled from one.
    output:
        Name of the output node to evaluate; may be omitted when the graph
        has exactly one output.

    Returns
    -------
    NoiseStats
        Estimated mean and variance of the output quantization noise.  The
        estimated noise power is ``result.power``.
    """
    plan = compile_plan(system)
    index = plan.index_of[plan.resolve_output(output)]
    return stats_row(walk_stats(plan)[index])


def evaluate_agnostic_batch(system: SignalFlowGraph | CompiledPlan,
                            assignments,
                            output: str | None = None) -> NoiseStats:
    """Estimate the output moments of a stack of word-length assignments.

    One graph walk evaluates every configuration, with the same step
    rule :func:`evaluate_agnostic` runs at one configuration.  The
    returned :class:`NoiseStats` carries ``(K,)`` arrays in its ``mean`` /
    ``variance`` fields (``result.power`` is the per-config power array);
    entry ``k`` is bit-identical to ``evaluate_agnostic(plan)`` after
    ``plan.requantize(assignments[k])``.
    """
    plan = compile_plan(system)
    return walk_stats_batch(plan, ConfigStack(plan, assignments),
                            plan.resolve_output(output))

"""Proposed PSD-based accuracy evaluation (Section III of the paper).

The system is traversed block by block exactly like the PSD-agnostic
method, but the quantity crossing each block boundary is a sampled power
spectral density (``N_PSD`` bins) plus the signed mean of the noise:

* a quantization noise source is white (Eq. 10);
* an LTI block shapes the PSD by its squared magnitude response (Eq. 11);
* an adder sums PSDs (Eq. 14 — the uncorrelated assumption of the
  hierarchical method);
* decimators fold the PSD (aliasing) and expanders image it.

The cost of one evaluation is linear in ``N_PSD`` and in the number of
blocks; the block magnitude responses are computed once (``O(N log N)``)
and can be reused for any number of word-length configurations.  That
reuse is realised through :class:`~repro.sfg.plan.CompiledPlan`: every
function here accepts either a graph or a compiled plan, and the plan
memoizes the per-block frequency responses across calls.  Repeated
evaluations of the same plan additionally pull from its
:class:`~repro.analysis._engine.NoiseMemo`: after a requantize edit only
the edited nodes' downstream cone is re-propagated, so one-node edits
(the optimizer's inner loop) cost O(depth), not O(nodes), per call —
bit-identical to a cold walk.

:func:`evaluate_psd` and :func:`evaluate_psd_batch` run the engine's one
step rule: a scalar evaluation is the one-configuration case of the
batched walk, read back as an unstacked :class:`DiscretePsd`, and the
batched one returns a :class:`DiscretePsd` stacked along a leading
configuration axis.

:func:`evaluate_psd_tracked` additionally keeps, for every noise source,
the complex response of the path to the output, which makes re-convergent
(correlated) paths exact (Eqs. 12–13) at the cost of one spectrum per
source — this is the frequency-domain equivalent of the flat method and
is used in the correlation ablation.
"""

from __future__ import annotations

from repro.analysis._engine import walk_psd, walk_psd_batch, walk_tracked
from repro.psd.spectrum import DiscretePsd
from repro.sfg.graph import SignalFlowGraph, reject_multirate
from repro.sfg.plan import CompiledPlan, ConfigStack, compile_plan


def evaluate_psd(system: SignalFlowGraph | CompiledPlan, n_psd: int,
                 output: str | None = None) -> DiscretePsd:
    """Estimate the output-noise PSD with the proposed method.

    Parameters
    ----------
    system:
        Acyclic signal-flow graph with per-node quantization specs, or a
        :class:`CompiledPlan` compiled from one (pass the plan when the
        same system is evaluated repeatedly).
    n_psd:
        Number of PSD bins (``N_PSD`` in the paper).  Accuracy improves and
        cost grows linearly with this number (Figs. 5 and 6).
    output:
        Output node to evaluate; optional when the graph has exactly one.

    Returns
    -------
    DiscretePsd
        Estimated PSD of the output quantization noise.  The estimated
        noise power is ``result.total_power``.  Its bins are a read-only
        view of the plan's noise memo, which later evaluations read.
    """
    check_n_psd(n_psd)
    plan = compile_plan(system)
    index = plan.index_of[plan.resolve_output(output)]
    psd = walk_psd(plan, n_psd)[index].select(0)
    psd.ac.flags.writeable = False
    return psd


def evaluate_psd_batch(system: SignalFlowGraph | CompiledPlan, n_psd: int,
                       assignments, output: str | None = None) -> DiscretePsd:
    """Estimate the output PSDs of a stack of word-length assignments.

    One graph walk evaluates every configuration: noise-source moments
    carry a leading config axis and the per-block frequency responses are
    shared across the stack (per effective coefficient precision).  Row
    ``k`` of the result is bit-identical to
    ``evaluate_psd(plan, n_psd)`` after ``plan.requantize(assignments[k])``.

    Parameters
    ----------
    system:
        Graph or compiled plan.
    n_psd:
        Number of PSD bins shared by the whole stack.
    assignments:
        Sequence of ``{node name: fractional bits}`` mappings (``None``
        disables quantization; unnamed nodes keep their current word
        length).
    output:
        Output node to evaluate; optional when the graph has exactly one.

    Returns
    -------
    DiscretePsd
        Per-config output-noise PSDs stacked along a leading config axis
        (``result.select(k)`` is row ``k``); the per-config powers are
        ``result.total_power`` (a ``(K,)`` array).
    """
    check_n_psd(n_psd)
    plan = compile_plan(system)
    return walk_psd_batch(plan, n_psd, ConfigStack(plan, assignments),
                          plan.resolve_output(output))


def evaluate_psd_tracked(system: SignalFlowGraph | CompiledPlan, n_psd: int,
                         output: str | None = None) -> DiscretePsd:
    """Correlation-exact variant: per-source complex path responses.

    Only defined for single-rate (LTI + adder) graphs; multirate nodes
    raise ``NotImplementedError`` because decimation is not time-invariant
    at the sample level.
    """
    check_n_psd(n_psd)
    plan = compile_plan(system)
    reject_multirate(plan.graph, "psd_tracked")
    index = plan.index_of[plan.resolve_output(output)]
    return walk_tracked(plan, n_psd)[index].to_psd()


def check_n_psd(n_psd: int) -> None:
    """The one ``N_PSD`` rule of every analytical and simulated PSD: at
    least 2 bins (``ValueError`` otherwise)."""
    if n_psd < 2:
        raise ValueError(f"n_psd must be at least 2, got {n_psd}")

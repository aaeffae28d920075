"""Accuracy-evaluation engines (the paper's core contribution).

Four evaluation methods are provided, all answering the same question —
"what is the quantization-noise power at the output of this fixed-point
system?" — with different cost/accuracy trade-offs:

* :class:`~repro.analysis.simulation_method.SimulationEvaluator` — the
  Monte-Carlo reference: run the system in double precision and in fixed
  point, subtract, and measure.
* :func:`~repro.analysis.flat_method.evaluate_flat` — the classical flat
  analytical method (Eq. 4): one path function per noise source across the
  *flattened* graph.
* :func:`~repro.analysis.agnostic_method.evaluate_agnostic` — the
  hierarchical, PSD-agnostic method: only ``(mu, sigma^2)`` cross block
  boundaries.
* :func:`~repro.analysis.psd_method.evaluate_psd` — the proposed method:
  a sampled PSD (plus signed mean) crosses block boundaries (Eqs. 10–14).

:class:`~repro.analysis.evaluator.AccuracyEvaluator` wraps all four behind
one interface and computes the comparison metric ``Ed`` (Eq. 15) used in
every experiment of the paper.  The one table of the analytical methods
(their names, checks and dispatch) is in :mod:`repro.analysis.evaluator`.
"""

from repro.analysis.metrics import (
    ed_deviation,
    is_sub_one_bit,
    noise_power,
)
from repro.analysis.simulation_method import SimulationEvaluator, SimulationResult
from repro.analysis.flat_method import evaluate_flat, evaluate_flat_batch
from repro.analysis.agnostic_method import (
    evaluate_agnostic,
    evaluate_agnostic_batch,
)
from repro.analysis.psd_method import (
    evaluate_psd,
    evaluate_psd_batch,
    evaluate_psd_tracked,
)
from repro.analysis.evaluator import AccuracyEvaluator, MethodComparison
from repro.analysis.report import AccuracyReport, EstimateResult

__all__ = [
    "ed_deviation",
    "noise_power",
    "is_sub_one_bit",
    "SimulationEvaluator",
    "SimulationResult",
    "evaluate_flat",
    "evaluate_flat_batch",
    "evaluate_agnostic",
    "evaluate_agnostic_batch",
    "evaluate_psd",
    "evaluate_psd_batch",
    "evaluate_psd_tracked",
    "AccuracyEvaluator",
    "MethodComparison",
    "AccuracyReport",
    "EstimateResult",
]

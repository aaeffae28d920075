"""Unified accuracy-evaluation front end and the one table of methods.

The module-level table names the analytical methods and the subsets that
read N_PSD, that are single-rate and that the word-length search drives;
:func:`check_method` rejects a method that cannot run, and
:func:`estimate_noise` / :func:`estimate_noise_batch` dispatch one method
on a plan.  Every front end reads it.  The dispatch calls the
``evaluate_*`` functions through their module-level names, so a tracer
or a test double that rebinds them here sees every call.

:class:`AccuracyEvaluator` exposes every estimation method behind one
interface and builds the simulation-vs-estimation comparisons used by all
the experiments:

* ``estimate(method=...)`` — run one analytical method on the graph;
* ``simulate(stimulus)`` — run the Monte-Carlo reference;
* ``compare(stimulus, methods=...)`` — produce one
  :class:`~repro.analysis.report.AccuracyReport` per method, which is what
  the benchmark harnesses print as table rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.agnostic_method import (
    evaluate_agnostic,
    evaluate_agnostic_batch,
)
from repro.analysis.flat_method import evaluate_flat, evaluate_flat_batch
from repro.analysis.psd_method import (
    check_n_psd,
    evaluate_psd,
    evaluate_psd_batch,
    evaluate_psd_tracked,
)
from repro.analysis.report import AccuracyReport, EstimateResult
from repro.analysis.simulation_method import SimulationEvaluator, SimulationResult
from repro.sfg.graph import SignalFlowGraph, reject_multirate
from repro.sfg.plan import CompiledPlan, compile_plan

#: Every analytical method, in the order the command line lists them.
ANALYTICAL_METHODS = ("psd", "psd_tracked", "flat", "agnostic")
#: Methods whose answer depends on the PSD resolution N_PSD.
PSD_METHODS = ("psd", "psd_tracked")
#: Methods defined at a single rate only (no decimators or expanders).
SINGLE_RATE_METHODS = ("psd_tracked", "flat")
#: Methods with a batched walk, which the word-length search drives.
SEARCH_METHODS = ("psd", "flat", "agnostic")


def check_method(method: str, n_psd: int,
                 graph: SignalFlowGraph | None = None,
                 methods: tuple = ANALYTICAL_METHODS) -> None:
    """Reject a name outside ``methods`` or ``n_psd < 2`` with a PSD
    method (``ValueError``) and, given a ``graph``, a single-rate method
    on a multirate one (``NotImplementedError`` naming the node)."""
    if method not in methods:
        raise ValueError(
            f"unknown method {method!r}; expected one of {methods}")
    if method in PSD_METHODS:
        check_n_psd(n_psd)
    if method in SINGLE_RATE_METHODS and graph is not None:
        reject_multirate(graph, method)


def _power_mean_variance(noise) -> tuple:
    """``(mean**2 + variance, mean, variance)`` of a PSD or moment
    result: the expression of ``total_power`` and ``power`` alike."""
    mean, variance = noise.mean, noise.variance
    return mean ** 2 + variance, mean, variance


def estimate_noise(plan: CompiledPlan, method: str, n_psd: int,
                   output: str | None = None) -> tuple:
    """``(power, mean, variance)`` of one method on the plan as it
    stands; a single-rate method rejects a multirate graph itself."""
    check_method(method, n_psd)
    if method == "psd":
        noise = evaluate_psd(plan, n_psd, output=output)
    elif method == "psd_tracked":
        noise = evaluate_psd_tracked(plan, n_psd, output=output)
    elif method == "flat":
        noise = evaluate_flat(plan, output=output)
    else:
        noise = evaluate_agnostic(plan, output=output)
    return _power_mean_variance(noise)


def estimate_noise_batch(plan: CompiledPlan, method: str, n_psd: int,
                         assignments, output: str | None = None) -> tuple:
    """Per-assignment ``(power, mean, variance)`` arrays of one method.

    Entry ``k`` is bit-identical to :func:`estimate_noise` after
    ``plan.requantize(assignments[k])``, and the plan is left as it was.
    ``psd_tracked`` has no batched walk: it requantizes the shared plan
    per assignment (one dirty-cone memo pull each).
    """
    check_method(method, n_psd)
    if method == "psd":
        noise = evaluate_psd_batch(plan, n_psd, assignments, output=output)
    elif method == "psd_tracked":
        stack = plan.config_stack(assignments)
        rows = []
        with plan.preserve_quantization():
            for config in range(stack.size):
                plan.requantize(stack.resolved(config), allow_enable=True)
                rows.append(estimate_noise(plan, method, n_psd, output))
        return tuple(np.array(rows, dtype=float).reshape(-1, 3).T)
    elif method == "flat":
        noise = evaluate_flat_batch(plan, assignments, output=output)
    else:
        noise = evaluate_agnostic_batch(plan, assignments, output=output)
    return _power_mean_variance(noise)


@dataclass
class MethodComparison:
    """Simulation reference plus one report per analytical method."""

    simulation: SimulationResult
    reports: dict[str, AccuracyReport] = field(default_factory=dict)

    def describe(self) -> str:
        """Multi-line textual summary."""
        lines = [f"simulated error power: {self.simulation.error_power:.4e} "
                 f"({self.simulation.num_samples} samples)"]
        lines.extend(report.describe() for report in self.reports.values())
        return "\n".join(lines)


class AccuracyEvaluator:
    """Evaluate the output quantization noise of a signal-flow graph.

    Parameters
    ----------
    graph:
        Acyclic :class:`SignalFlowGraph` with per-node quantization specs.
    n_psd:
        Default number of PSD bins for the PSD-based methods.
    name:
        Human-readable system name used in reports.
    """

    def __init__(self, graph: SignalFlowGraph, n_psd: int = 1024,
                 name: str | None = None):
        self.graph = graph
        self.n_psd = n_psd
        self.name = name or graph.name
        # The graph is compiled once; every estimate / simulation call then
        # replays the plan (validation, ordering, wiring and the
        # frequency-response cache are all reused across calls).
        # Analytical estimates additionally share the plan's NoiseMemo
        # (see repro.analysis._engine): repeated estimates after
        # requantize edits re-propagate only the dirty downstream cone,
        # and simulation calls reuse cached double-precision reference
        # runs when only data-path word lengths changed.
        self.plan = compile_plan(graph)
        self._simulator = SimulationEvaluator(self.plan)

    def _resolve_plan(self):
        """Current plan for the graph, tracking structural changes.

        compile_plan is a cheap signature check when nothing changed; when
        the graph was rewired since the last call, the simulator is
        rebuilt alongside the plan so estimates and simulations always
        describe the same system.
        """
        plan = compile_plan(self.graph)
        if plan is not self.plan:
            self.plan = plan
            self._simulator = SimulationEvaluator(plan)
        return plan

    # ------------------------------------------------------------------
    # Individual methods
    # ------------------------------------------------------------------
    def estimate(self, method: str = "psd", n_psd: int | None = None,
                 output: str | None = None) -> EstimateResult:
        """Run one analytical estimation method.

        Parameters
        ----------
        method:
            One of :data:`ANALYTICAL_METHODS`.
        n_psd:
            PSD bin count override for the :data:`PSD_METHODS`.
        output:
            Output node for multi-output graphs.
        """
        bins = self.n_psd if n_psd is None else n_psd
        # Re-resolving picks up in-place quantization / coefficient changes
        # and structural rewires made since the last call.
        plan = self._resolve_plan()
        start = time.perf_counter()
        power, mean, variance = estimate_noise(plan, method, bins, output)
        elapsed = time.perf_counter() - start
        return EstimateResult(method=method, power=power, mean=mean,
                              variance=variance,
                              n_psd=bins if method in PSD_METHODS else None,
                              elapsed_seconds=elapsed)

    def simulate(self, stimulus, output: str | None = None,
                 n_psd: int | None = None,
                 discard_transient: int = 0) -> SimulationResult:
        """Run the Monte-Carlo reference on one stimulus."""
        self._resolve_plan()
        return self._simulator.evaluate(stimulus, output=output,
                                        n_psd=n_psd,
                                        discard_transient=discard_transient)

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def compare(self, stimulus, methods=("psd", "agnostic"),
                n_psd: int | None = None, output: str | None = None,
                discard_transient: int = 0) -> MethodComparison:
        """Compare analytical estimates against the simulation reference.

        The estimates run first: they take milliseconds, so a method that
        cannot run on this system (an unknown name, a single-rate method
        on a multirate graph) raises before the simulation is paid for.
        The simulation measures the error power only; for its PSD, call
        :meth:`simulate` with ``n_psd`` on the same stimulus afterwards,
        which reuses the measured error record.
        """
        estimates = {method: self.estimate(method, n_psd=n_psd, output=output)
                     for method in methods}
        simulation = self.simulate(stimulus, output=output,
                                   discard_transient=discard_transient)
        reports = {
            method: AccuracyReport(
                system=self.name,
                simulated_power=simulation.error_power,
                estimate=estimate,
            )
            for method, estimate in estimates.items()}
        return MethodComparison(simulation=simulation, reports=reports)

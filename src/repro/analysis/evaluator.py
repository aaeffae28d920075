"""Unified accuracy-evaluation front end.

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

from repro.analysis.agnostic_method import evaluate_agnostic
from repro.analysis.flat_method import evaluate_flat
from repro.analysis.psd_method import evaluate_psd, evaluate_psd_tracked
from repro.analysis.report import AccuracyReport, EstimateResult
from repro.analysis.simulation_method import SimulationEvaluator, SimulationResult
from repro.sfg.graph import SignalFlowGraph
from repro.sfg.plan import compile_plan

_ANALYTICAL_METHODS = ("psd", "psd_tracked", "flat", "agnostic")


@dataclass
class MethodComparison:
    """Simulation reference plus one report per analytical method."""

    simulation: SimulationResult
    reports: dict[str, AccuracyReport] = field(default_factory=dict)

    def ed_percent(self, method: str) -> float:
        """``Ed`` of a given method, in percent."""
        return self.reports[method].ed_percent

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
            ``psd`` (proposed), ``psd_tracked`` (correlation-exact
            variant), ``flat`` (Eq. 4) or ``agnostic`` (moments only).
        n_psd:
            PSD bin count override for the PSD-based methods.
        output:
            Output node for multi-output graphs.
        """
        if method not in _ANALYTICAL_METHODS:
            raise ValueError(
                f"unknown method {method!r}; expected one of {_ANALYTICAL_METHODS}")
        bins = self.n_psd if n_psd is None else n_psd
        # Re-resolving picks up in-place quantization / coefficient changes
        # and structural rewires made since the last call.
        plan = self._resolve_plan()
        start = time.perf_counter()
        if method == "psd":
            psd = evaluate_psd(plan, bins, output=output)
            power, mean, variance = psd.total_power, psd.mean, psd.variance
            used_bins = bins
        elif method == "psd_tracked":
            psd = evaluate_psd_tracked(plan, bins, output=output)
            power, mean, variance = psd.total_power, psd.mean, psd.variance
            used_bins = bins
        elif method == "flat":
            stats = evaluate_flat(plan, output=output)
            power, mean, variance = stats.power, stats.mean, stats.variance
            used_bins = None
        else:  # agnostic
            stats = evaluate_agnostic(plan, output=output)
            power, mean, variance = stats.power, stats.mean, stats.variance
            used_bins = None
        elapsed = time.perf_counter() - start
        return EstimateResult(method=method, power=power, mean=mean,
                              variance=variance, n_psd=used_bins,
                              elapsed_seconds=elapsed)

    def simulate(self, stimulus, output: str | None = None,
                 n_psd: int | None = None,
                 discard_transient: int = 0) -> SimulationResult:
        """Run the Monte-Carlo reference on one stimulus.

        A 2-D ``(trials, samples)`` stimulus runs the whole batch in one
        vectorized pass.
        """
        self._resolve_plan()
        return self._simulator.evaluate(stimulus, output=output,
                                        n_psd=n_psd,
                                        discard_transient=discard_transient)

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def compare(self, stimulus, methods=("psd", "agnostic"),
                n_psd: int | None = None, output: str | None = None,
                discard_transient: int = 0,
                metadata: dict | None = None) -> MethodComparison:
        """Compare analytical estimates against the simulation reference."""
        simulation = self.simulate(
            stimulus, output=output,
            n_psd=self.n_psd if n_psd is None else n_psd,
            discard_transient=discard_transient)
        reports: dict[str, AccuracyReport] = {}
        for method in methods:
            estimate = self.estimate(method, n_psd=n_psd, output=output)
            reports[method] = AccuracyReport(
                system=self.name,
                simulated_power=simulation.error_power,
                estimate=estimate,
                metadata=dict(metadata or {}),
            )
        return MethodComparison(simulation=simulation, reports=reports)

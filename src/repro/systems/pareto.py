"""Cost-vs-noise Pareto exploration built on the batched optimizer.

The paper's motivation for fast accuracy evaluation is the word-length
*design space*: a designer does not want the optimum for one noise budget
but the whole cost-versus-accuracy trade-off curve.  This module sweeps a
range of noise budgets through :class:`~repro.systems.wordlength.
WordLengthOptimizer` — one compiled plan, one frequency-response cache and
one per-plan noise memo shared across the entire sweep, so consecutive
budgets re-evaluate only the dirty cones of the nodes the greedy search
actually moves — and collects the resulting ``(total bits, noise power)``
points into a Pareto front.

Each front point can optionally be cross-validated against the
Monte-Carlo reference; the validation runs through
:meth:`~repro.analysis.simulation_method.SimulationEvaluator.
evaluate_batch`, which shares the double-precision reference run between
every front point with the same effective coefficient precisions.

Exposed on the command line as ``python -m repro.cli sweep``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.analysis.metrics import ed_deviation
from repro.analysis.simulation_method import SimulationEvaluator
from repro.data.signals import uniform_white_noise
from repro.obs import span
from repro.sfg.graph import SignalFlowGraph
from repro.sfg.plan import compile_plan
from repro.systems.wordlength import (
    BudgetUnreachableError,
    WordLengthOptimizer,
)
from repro.utils.tables import TextTable


@dataclass(frozen=True)
class ParetoPoint:
    """One optimized configuration of the cost-vs-noise trade-off.

    Attributes
    ----------
    budget:
        Noise-power budget the optimizer was asked to meet.
    total_bits:
        Cost of the optimized assignment (sum of fractional bits).
    noise_power:
        Estimated output noise power of the assignment.
    assignment:
        The optimized per-node word lengths.
    evaluations:
        Analytical evaluations the optimizer spent on this budget.
    simulated_power:
        Monte-Carlo cross-validation of ``noise_power`` (``None`` unless
        the sweep was asked to validate).
    full_walks, cone_recomputes:
        Work split of the evaluations (see
        :class:`~repro.systems.wordlength.WordLengthResult`): budgets
        after the first reuse the sweep-wide noise memo, so later points
        are served almost entirely by cone recomputes.
    """

    budget: float
    total_bits: int
    noise_power: float
    assignment: dict = field(hash=False)
    evaluations: int
    simulated_power: float | None = None
    full_walks: int = 0
    cone_recomputes: int = 0

    @property
    def ed(self) -> float | None:
        """Deviation ``Ed`` of the estimate vs the validation run."""
        if self.simulated_power is None:
            return None
        return ed_deviation(self.simulated_power, self.noise_power)


@dataclass
class ParetoFront:
    """Result of one budget sweep.

    ``points`` holds one entry per requested budget (sorted by budget,
    loosest first); :meth:`pareto_points` filters them down to the
    non-dominated subset.
    """

    system: str
    method: str
    points: list = field(default_factory=list)

    def pareto_points(self) -> list:
        """Non-dominated points: no other point is cheaper *and* quieter."""
        optimal = []
        for point in self.points:
            dominated = any(
                (other.total_bits <= point.total_bits
                 and other.noise_power <= point.noise_power
                 and (other.total_bits < point.total_bits
                      or other.noise_power < point.noise_power))
                for other in self.points)
            if not dominated:
                optimal.append(point)
        return sorted(optimal, key=lambda p: p.total_bits)

    @property
    def total_evaluations(self) -> int:
        """Analytical evaluations spent over the whole sweep."""
        return sum(point.evaluations for point in self.points)

    def describe(self) -> str:
        """Render the front as the text table printed by the CLI."""
        validated = any(p.simulated_power is not None for p in self.points)
        headers = ["budget", "total bits", "est. power", "evals"]
        if validated:
            headers += ["sim. power", "Ed [%]"]
        on_front = {id(p) for p in self.pareto_points()}
        table = TextTable(
            headers + ["on front?"],
            title=(f"{self.system}: cost-vs-noise sweep ({self.method}, "
                   f"{len(self.points)} budgets, "
                   f"{self.total_evaluations} evaluations)"))
        for point in self.points:
            row = [f"{point.budget:.3e}", point.total_bits,
                   f"{point.noise_power:.3e}", point.evaluations]
            if validated:
                if point.simulated_power is None:
                    row += ["-", "-"]
                else:
                    row += [f"{point.simulated_power:.3e}",
                            round(100.0 * point.ed, 2)]
            row.append("yes" if id(point) in on_front else "no")
            table.add_row(*row)
        return table.render()


def budget_range(loosest: float, tightest: float, count: int) -> np.ndarray:
    """Geometrically spaced noise budgets from ``loosest`` to ``tightest``.

    Always returns a well-formed, loosest-first (descending) sequence:

    * ``count == 0`` yields an empty range (and :func:`sweep_noise_budgets`
      then returns an empty front rather than failing);
    * ``count == 1`` yields the single loosest budget;
    * swapped endpoints (``loosest < tightest``) are reordered — a budget
      of ``1e-8`` is *tighter* than ``1e-4`` no matter the argument
      order;
    * equal endpoints collapse to ``count`` copies of the same budget.
    """
    # NaN compares False against everything, so `<= 0` alone would wave
    # a NaN endpoint through and geomspace would emit a NaN ladder.
    if not (math.isfinite(loosest) and math.isfinite(tightest)):
        raise ValueError(
            f"noise budgets must be finite, got ({loosest!r}, {tightest!r})")
    if loosest <= 0 or tightest <= 0:
        raise ValueError("noise budgets must be positive")
    if count < 0:
        raise ValueError(f"budget count must be non-negative, got {count}")
    if count == 0:
        return np.empty(0)
    loosest, tightest = float(loosest), float(tightest)
    if loosest < tightest:
        loosest, tightest = tightest, loosest
    if count == 1:
        return np.array([loosest])
    return np.geomspace(loosest, tightest, count)


def sweep_noise_budgets(system: SignalFlowGraph, budgets,
                        method: str = "psd", n_psd: int = 256,
                        min_bits: int = 4, max_bits: int = 24,
                        granularity: str = "node",
                        validate_samples: int = 0,
                        seed: int = 0) -> ParetoFront:
    """Sweep noise budgets into a cost-vs-noise Pareto front.

    Parameters
    ----------
    system:
        Graph to optimize.  Its quantization specs are mutated during the
        sweep and left at the tightest budget's optimum.
    budgets:
        Noise-power budgets to sweep (see :func:`budget_range`).  Budgets
        that cannot be met even at ``max_bits`` are skipped (recorded
        nowhere — the front only holds feasible points).  An empty budget
        sequence yields a well-formed empty front; duplicate budgets are
        collapsed.
    method, n_psd, min_bits, max_bits, granularity:
        Forwarded to :class:`WordLengthOptimizer`; one optimizer (hence
        one compiled plan, one response cache and one noise memo) serves
        every budget: each point after the first starts from the
        previous optimum's memo, pays only dirty-cone deltas and reads
        the powers of the uniform widths earlier budgets evaluated.
    validate_samples:
        When positive, cross-validate every swept point by a Monte-Carlo
        run of that many samples (batched, reference runs shared); 0
        skips the validation and a negative count is rejected.
    seed:
        Seed of the validation stimulus.

    Returns
    -------
    ParetoFront
        One point per feasible budget, sorted loosest first.
    """
    if validate_samples < 0:
        raise ValueError("validate_samples must be non-negative, got "
                         f"{validate_samples}")
    budgets = {float(b) for b in budgets}
    # Validate before sorting: NaN both defeats the `<= 0` check and
    # makes the sort order (hence the "tightest budget" break below)
    # meaningless.
    bad = [b for b in budgets if not math.isfinite(b) or b <= 0]
    if bad:
        raise ValueError(
            f"noise budgets must be positive and finite, got {sorted(bad)}")
    budgets = sorted(budgets, reverse=True)
    if not budgets:
        # An empty sweep (e.g. budget_range(..., 0)) is a well-formed,
        # empty front — not an error.
        return ParetoFront(system=system.name, method=method)
    optimizer = WordLengthOptimizer(system, method=method, n_psd=n_psd,
                                    min_bits=min_bits, max_bits=max_bits,
                                    granularity=granularity)
    front = ParetoFront(system=system.name, method=method)
    for budget in budgets:
        try:
            with span("pareto.budget", budget=budget, system=system.name):
                result = optimizer.optimize(budget)
        except BudgetUnreachableError:
            # Tighter budgets are unreachable too.
            break
        front.points.append(ParetoPoint(
            budget=budget,
            total_bits=result.total_bits,
            noise_power=result.noise_power,
            assignment=dict(result.assignment),
            evaluations=result.evaluations,
            full_walks=result.full_walks,
            cone_recomputes=result.cone_recomputes,
        ))

    if validate_samples > 0 and front.points:
        plan = compile_plan(system)
        stimulus = {name: uniform_white_noise(validate_samples, 0.9,
                                              seed + index)
                    for index, name in enumerate(plan.input_names)}
        evaluator = SimulationEvaluator(plan)
        with span("pareto.validate", points=len(front.points),
                  samples=validate_samples):
            measurements = evaluator.evaluate_batch(
                [point.assignment for point in front.points], stimulus)
        front.points = [
            replace(point, simulated_power=measurement.error_power)
            for point, measurement in zip(front.points, measurements)]
    return front

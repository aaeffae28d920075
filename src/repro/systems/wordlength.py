"""Word-length optimization driven by the accuracy evaluators.

The introduction of the paper motivates fast accuracy evaluation by the
fixed-point *refinement* loop: choosing per-signal word lengths that meet
a quality constraint at minimum cost requires evaluating the output noise
power for very many candidate configurations, so the evaluator's speed
directly bounds the size of the explorable search space.

:class:`WordLengthOptimizer` implements the classical greedy refinement on
top of any analytical evaluator of this library:

1. find the smallest *uniform* fractional word length meeting the noise
   budget (binary search);
2. greedily remove one bit at a time from the node whose removal degrades
   the output noise the least, as long as the budget is still met
   (max-1 / min+1 style descent).

The cost model is the total number of fractional bits across all
quantized nodes, a standard proxy for datapath area / energy.

The optimizer compiles the graph into a
:class:`~repro.sfg.plan.CompiledPlan` once and keeps it requantized to the
incumbent assignment, so the topological schedule, the memoized per-node
frequency responses and the plan's
:class:`~repro.analysis._engine.NoiseMemo` are shared by the (typically
thousands of) candidate evaluations; the power of every uniform width a
binary search evaluated is kept too, and the searches of later budgets
read it back while nothing else changed the plan.  Each greedy round is
one configuration-batched evaluation (``evaluate_*_batch``) of one-key
deltas against that incumbent: the row-sparse batched walk computes each
candidate's row only inside its own downstream cone and copies the
memo's value everywhere else, so a round costs the sum of the
candidates' cones rather than candidates x nodes.  The same search with
every evaluation on a freshly compiled plan gives bit-identical results:
the cold baseline of the tests and benchmarks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.analysis._engine import plan_memo
from repro.analysis.evaluator import (
    SEARCH_METHODS,
    check_method,
    estimate_noise,
    estimate_noise_batch,
)
from repro.obs import metric_inc, span
from repro.sfg.graph import SignalFlowGraph
from repro.sfg.nodes import OutputNode
from repro.sfg.plan import compile_plan

_GRANULARITIES = ("node", "edge")


class BudgetUnreachableError(ValueError):
    """The noise budget is not met even at ``max_bits`` everywhere."""


@dataclass
class WordLengthResult:
    """Outcome of a word-length optimization run.

    Attributes
    ----------
    assignment:
        Mapping from node name (and, at ``granularity="edge"``, from
        ``"source->target"`` edge key) to its optimized fractional word
        length.
    noise_power:
        Estimated output noise power of the final assignment.
    budget:
        Noise-power budget that was enforced.
    total_bits:
        Cost of the assignment: the sum of fractional bits over all
        optimized nodes, plus — at edge granularity — the per-edge
        deltas ``min(edge bits, source bits) - source bits`` (a fanout
        tap narrower than its source saves datapath bits on that
        branch; a tap at or above the source width is a no-op and
        costs nothing).
    evaluations:
        Number of distinct candidate evaluations performed (batched
        candidates count individually), a direct measure of how much the
        evaluator's speed matters.  Powers that are already known — the
        uniform starting point, the final assignment and every uniform
        width an earlier budget's search of the same optimizer evaluated
        (while nothing but the optimizer's own requantizing changed the
        plan since) — are reused, not re-evaluated.
    history:
        Sequence of ``(assignment cost, noise power)`` pairs recorded
        after every accepted move.
    full_walks:
        Cold builds of the plan's
        :class:`~repro.analysis._engine.NoiseMemo` channels during the
        run (0 for later budgets of a sweep, which reuse the memo).
    cone_recomputes:
        Memo pulls that re-propagated a dirty cone: the uniform-search
        points and the incumbent's move after each accepted round.
        Both counters stay 0 for the ``flat`` method, whose savings are
        path-function cache hits.
    """

    assignment: dict[str, int]
    noise_power: float
    budget: float
    total_bits: int
    evaluations: int
    history: list = field(default_factory=list)
    full_walks: int = 0
    cone_recomputes: int = 0


class WordLengthOptimizer:
    """Greedy word-length refinement on a signal-flow graph.

    Parameters
    ----------
    graph:
        Graph whose quantized nodes will be refined (their
        :class:`~repro.sfg.nodes.QuantizationSpec` objects are replaced in
        place by the optimizer).
    method:
        Analytical evaluator to drive the search, one of
        :data:`~repro.analysis.evaluator.SEARCH_METHODS` (default ``psd``),
        checked here by :func:`~repro.analysis.evaluator.check_method`.
    n_psd:
        PSD bins for the PSD-based evaluator.
    min_bits, max_bits:
        Search range for every node's fractional word length.
    granularity:
        ``"node"`` (default) tunes one fractional width per quantized
        node — the classical search.  ``"edge"`` additionally tunes a
        fractional width per fanout branch (every unambiguous
        ``source->target`` edge whose source is quantized and whose
        target is not an output), letting one consumer of a shared
        signal run narrower than the others.  Node-level assignments
        are the degenerate case: an edge at its source's width is a
        no-op tap with zero cost and zero noise.
    """

    def __init__(self, graph: SignalFlowGraph, method: str = "psd",
                 n_psd: int = 256, min_bits: int = 4, max_bits: int = 24,
                 granularity: str = "node"):
        if min_bits < 1 or max_bits < min_bits:
            raise ValueError(
                f"invalid bit range [{min_bits}, {max_bits}]")
        check_method(method, n_psd, graph, methods=SEARCH_METHODS)
        if granularity not in _GRANULARITIES:
            raise ValueError(
                f"unknown granularity {granularity!r}; expected one of "
                f"{_GRANULARITIES}")
        self.graph = graph
        self.method = method
        self.n_psd = n_psd
        self.min_bits = min_bits
        self.max_bits = max_bits
        self.granularity = granularity
        self._evaluations = 0
        # Power of every uniform width the binary search evaluated: a
        # function of the width and of everything but the tunables' word
        # lengths, so it holds while the plan's epoch is the one the last
        # search left (any other edit rebuilds a step and moves it on).
        self._uniform_powers: dict[int, float] = {}
        self._uniform_epoch: int | None = None
        # The graph is compiled once; the search re-quantizes the plan in
        # place, so the schedule, the memoized per-node frequency
        # responses and the noise memo are shared by every evaluation.
        self._plan = compile_plan(graph)
        # Only nodes with an enabled spec are tuned: handing bits to an
        # unquantized node would trip requantize's allow_enable guard
        # (and silently changing the search space would be worse).
        self._tunable = [name for name, node in graph.nodes.items()
                         if node.quantization.enabled]
        if not self._tunable:
            raise ValueError("the graph has no quantized node to optimize")
        # Edge granularity adds one tunable per unambiguous fanout
        # branch whose source is quantized; multi-port (source, target)
        # pairs are skipped because a "source->target" key cannot name
        # one of them, and output taps are skipped because the output
        # node is a pure probe.
        self._edge_sources: dict[str, str] = {}
        if granularity == "edge":
            pair_counts = Counter((edge.source, edge.target)
                                  for edge in graph.edges)
            for edge in graph.edges:
                key = f"{edge.source}->{edge.target}"
                if (key in self._edge_sources
                        or pair_counts[edge.source, edge.target] != 1
                        or not graph.nodes[edge.source].quantization.enabled
                        or isinstance(graph.nodes[edge.target], OutputNode)):
                    continue
                self._edge_sources[key] = edge.source
            self._tunable.extend(self._edge_sources)

    # ------------------------------------------------------------------
    # Evaluation plumbing
    # ------------------------------------------------------------------
    def _noise_power(self, assignment: dict[str, int]) -> float:
        """Requantize the plan to ``assignment`` and evaluate it (one
        dirty-cone memo pull)."""
        self._plan.requantize(assignment)
        self._evaluations += 1
        metric_inc("optimizer.evaluations")
        return estimate_noise(self._plan, self.method, self.n_psd)[0]

    def _noise_powers(self, deltas: list[dict]) -> np.ndarray:
        """Evaluate one greedy round of deltas against the live plan."""
        self._evaluations += len(deltas)
        metric_inc("optimizer.evaluations", len(deltas))
        with span("optimizer.round", candidates=len(deltas)):
            return estimate_noise_batch(self._plan, self.method, self.n_psd,
                                        deltas)[0]

    def assignment_cost(self, assignment: dict[str, int]) -> int:
        """Total fractional bits of an assignment (the search cost).

        Node keys contribute their width directly.  Edge keys
        contribute ``min(edge bits, source bits) - source bits``: a tap
        narrower than its source shrinks that branch's datapath, while
        a tap at or above the source width is a numerical no-op and
        costs nothing.  At node granularity this degenerates to
        ``sum(assignment.values())``.
        """
        total = 0
        for name, bits in assignment.items():
            source = self._edge_sources.get(name)
            if source is None:
                total += bits
            else:
                total += min(bits, assignment[source]) - assignment[source]
        return total

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def uniform_search(self, budget: float) -> dict[str, int]:
        """Smallest uniform word length meeting the noise budget (the
        plan is left requantized to it)."""
        assignment, _ = self._uniform_search(budget)
        return assignment

    def _uniform_search(self, budget: float) -> tuple[dict[str, int], float]:
        """Uniform search returning the assignment *and* its known power,
        with the plan requantized to that assignment.

        The binary search always ends on a word length whose power it
        knows, so the caller never needs to re-measure the starting
        point.  A width an earlier search evaluated is read from the
        uniform-width table instead of being requantized and evaluated
        again (the span's ``reused`` counts them).
        """
        budget = float(budget)
        if not math.isfinite(budget) or budget <= 0:
            raise ValueError(
                f"the noise budget must be positive and finite, got "
                f"{budget!r}")
        with span("optimizer.uniform_search", budget=budget) as search:
            self._plan.refresh()
            if self._plan.epoch != self._uniform_epoch:
                self._uniform_powers.clear()
            powers = self._uniform_powers
            reused = 0

            def power(width: int) -> float:
                nonlocal reused
                if width in powers:
                    reused += 1
                else:
                    powers[width] = self._noise_power(
                        {n: width for n in self._tunable})
                return powers[width]

            low, high = self.min_bits, self.max_bits
            if power(high) > budget:
                raise BudgetUnreachableError(
                    f"the budget {budget:.3e} cannot be met even with "
                    f"{high} fractional bits everywhere")
            while low < high:
                middle = (low + high) // 2
                if power(middle) <= budget:
                    high = middle
                else:
                    low = middle + 1
            assignment = {n: high for n in self._tunable}
            self._plan.requantize(assignment)
            self._uniform_epoch = self._plan.epoch
            search.set(reused=reused)
            return assignment, powers[high]

    def optimize(self, budget: float) -> WordLengthResult:
        """Run the full greedy refinement under a noise-power budget."""
        with span("optimizer.optimize", budget=budget, method=self.method):
            return self._optimize(budget)

    def _optimize(self, budget: float) -> WordLengthResult:
        self._evaluations = 0
        memo = plan_memo(self._plan)
        counters_before = memo.counters()
        assignment, current_power = self._uniform_search(budget)
        history = [(self.assignment_cost(assignment), current_power)]
        # The plan tracks the incumbent from here on, so every candidate
        # is a one-key delta whose batched row costs only its own cone.
        base_cost = self.assignment_cost(assignment)
        while True:
            deltas = []
            for name in self._tunable:
                source = self._edge_sources.get(name)
                # An edge tap wider than its source is a no-op, so the
                # first useful decrement starts from the *effective*
                # width min(edge, source), not the stored one.
                current = (assignment[name] if source is None
                           else min(assignment[name], assignment[source]))
                if current <= self.min_bits:
                    continue
                # Only strict cost improvements compete: narrowing a
                # node that already carries a narrower fanout tap can
                # be cost-neutral (the tapped branch stays at the tap
                # width), and accepting such a move would burn noise
                # slack without buying anything.  Without edge
                # tunables every decrement saves exactly one bit.
                if self._edge_sources:
                    candidate = dict(assignment)
                    candidate[name] = current - 1
                    if self.assignment_cost(candidate) >= base_cost:
                        continue
                deltas.append({name: current - 1})
            if not deltas:
                break
            powers = self._noise_powers(deltas)
            best_index = None
            best_power = None
            for index, power in enumerate(powers):
                power = float(power)
                if power <= budget and (best_power is None
                                        or power < best_power):
                    best_index = index
                    best_power = power
            if best_index is None:
                break
            move = deltas[best_index]
            assignment.update(move)
            self._plan.requantize(move)
            current_power = best_power
            base_cost = self.assignment_cost(assignment)
            history.append((base_cost, best_power))

        # Only tunable widths moved since the search: its table holds.
        self._uniform_epoch = self._plan.epoch
        counters = memo.counters()
        return WordLengthResult(
            assignment=dict(assignment),
            noise_power=current_power,
            budget=budget,
            total_bits=self.assignment_cost(assignment),
            evaluations=self._evaluations,
            history=history,
            full_walks=counters["full_walks"] - counters_before["full_walks"],
            cone_recomputes=(counters["cone_recomputes"]
                             - counters_before["cone_recomputes"]),
        )

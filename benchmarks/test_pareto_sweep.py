"""Configuration-batched word-length search and the Pareto budget sweep.

PR 1 made *one* evaluation cheap by compiling the graph into a reusable
plan; this harness quantifies the next layer: evaluating a whole greedy
round of single-bit-decrement candidates as one configuration-batched
pass instead of one plan walk per candidate.  Three claims are pinned:

* **equivalence** — the batched greedy search returns bit-identical
  assignments, powers and histories to the sequential baseline (one
  requantize + cold scalar walk per candidate) on Table-I filter-bank
  systems (where coefficient precision tracks the data path, the
  hardest case for response sharing);
* **speed** — a full batched search on a ten-stage cascade is at least
  2x faster per greedy round than the sequential baseline;
* **scale** — sweeping a range of noise budgets through the shared
  optimizer yields a cost-vs-noise Pareto front (>= 5 points), each point
  cross-validated against the Monte-Carlo reference.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis._engine import plan_memo
from repro.analysis.psd_method import evaluate_psd
from repro.lti.fir_design import design_fir_highpass, design_fir_lowpass
from repro.lti.iir_design import design_iir_filter
from repro.sfg.builder import SfgBuilder
from repro.systems.filter_bank import (
    build_filter_graph,
    generate_fir_bank,
    generate_iir_bank,
)
from repro.systems.pareto import budget_range, sweep_noise_budgets
from repro.systems.wordlength import WordLengthOptimizer
from repro.utils.tables import TextTable

from conftest import write_bench, write_report


def _cascade_graph(stages: int = 10, bits: int = 16):
    """A deep FIR/IIR cascade: one tunable word length per stage."""
    builder = SfgBuilder("ten-stage-cascade")
    signal = builder.input("x", fractional_bits=bits)
    for index in range(stages):
        if index % 3 == 2:
            b, a = design_iir_filter(3, 0.2 + 0.05 * index, kind="lowpass",
                                     family="butterworth")
            signal = builder.iir(f"iir{index}", b, a, signal,
                                 fractional_bits=bits)
        elif index % 3 == 1:
            signal = builder.fir(f"fir{index}", design_fir_highpass(11, 0.3),
                                 signal, fractional_bits=bits)
        else:
            signal = builder.fir(f"fir{index}", design_fir_lowpass(13, 0.45),
                                 signal, fractional_bits=bits)
    builder.output("y", signal)
    return builder.build()


class _SequentialOptimizer(WordLengthOptimizer):
    """The unbatched baseline: each candidate of a round is one
    requantize + cold scalar walk (the plan's noise memo cleared first),
    quantization restored after each."""

    def _noise_powers(self, deltas):
        self._evaluations += len(deltas)
        memo = plan_memo(self._plan)
        powers = []
        for delta in deltas:
            with self._plan.preserve_quantization():
                self._plan.requantize(delta)
                memo.clear()
                powers.append(
                    evaluate_psd(self._plan, self.n_psd).total_power)
        return np.array(powers)


def test_pareto_sweep_and_batched_speedup(bench_config, results_dir):
    n_psd = min(512, bench_config["default_n_psd"])
    budget = 1e-7

    # --- equivalence on Table-I filter-bank systems -----------------------
    entries = generate_fir_bank(2) + generate_iir_bank(2)
    for entry in entries:
        batched = WordLengthOptimizer(build_filter_graph(entry, 16),
                                      n_psd=n_psd)
        sequential = _SequentialOptimizer(build_filter_graph(entry, 16),
                                          n_psd=n_psd)
        result_b = batched.optimize(budget)
        result_s = sequential.optimize(budget)
        assert result_b.assignment == result_s.assignment, entry.name
        assert result_b.noise_power == result_s.noise_power, entry.name
        assert result_b.history == result_s.history, entry.name

    # --- per-round speed-up on the ten-stage cascade ----------------------
    timings = {}
    results = {}
    for batch in (True, False):
        optimizer_class = (WordLengthOptimizer if batch
                           else _SequentialOptimizer)
        optimizer = optimizer_class(_cascade_graph(), method="psd",
                                    n_psd=n_psd)
        optimizer.optimize(budget)  # warm the response cache
        start = time.perf_counter()
        results[batch] = optimizer.optimize(budget)
        timings[batch] = time.perf_counter() - start
    assert results[True].assignment == results[False].assignment
    assert results[True].history == results[False].history
    # Same number of greedy rounds on both sides (identical trajectories),
    # so the whole-search ratio is the per-round ratio.
    rounds = len(results[True].history)
    per_round = {batch: timings[batch] / rounds for batch in timings}
    speedup = per_round[False] / per_round[True]

    # --- the budget sweep -------------------------------------------------
    sweep_points = 7 if bench_config["mode"] == "full" else 6
    validate = (bench_config["filter_bank_samples"]
                if bench_config["mode"] == "full" else 20_000)
    sweep_graph = _cascade_graph()
    start = time.perf_counter()
    front = sweep_noise_budgets(sweep_graph,
                                budget_range(1e-5, 1e-8, sweep_points),
                                method="psd", n_psd=n_psd,
                                validate_samples=validate)
    sweep_time = time.perf_counter() - start

    table = TextTable(
        ["quantity", "value"],
        title=(f"Batched word-length search + Pareto sweep "
               f"({bench_config['mode']} mode, N_PSD={n_psd})"))
    table.add_row("greedy search, batched [s]", round(timings[True], 4))
    table.add_row("greedy search, sequential [s]", round(timings[False], 4))
    table.add_row("greedy rounds", rounds)
    table.add_row("per-round speed-up", round(speedup, 2))
    table.add_row("analytical evaluations", results[True].evaluations)
    table.add_row(f"sweep wall clock [s] ({sweep_points} budgets)",
                  round(sweep_time, 3))
    table.add_row("pareto points", len(front.points))
    table.add_row("pareto-optimal points", len(front.pareto_points()))
    report = table.render() + "\n\n" + front.describe()
    write_report(results_dir, "pareto_sweep.txt", report)
    write_bench(results_dir, "pareto_sweep",
                workload={"n_psd": n_psd, "greedy_rounds": rounds,
                          "sweep_points": sweep_points,
                          "pareto_points": len(front.points)},
                seconds={"greedy_batched": timings[True],
                         "greedy_sequential": timings[False],
                         "sweep": sweep_time},
                speedup={"per_round": speedup},
                tags=("pareto",))

    # Acceptance: >= 2x per greedy round, and a front of >= 5 points, each
    # inside the sub-one-bit band of its own Monte-Carlo validation.
    assert speedup >= 2.0, \
        f"batched rounds should be at least 2x faster, got {speedup:.2f}x"
    assert len(front.points) >= 5
    for point in front.points:
        assert point.noise_power <= point.budget
        assert -3.0 < point.ed < 0.75, \
            f"estimate off by over one bit at budget {point.budget:.1e}"

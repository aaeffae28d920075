"""Fine-grained word-length search — per-edge taps on the incremental
backbone.

Per-edge granularity multiplies the search space (one fractional width
per fanout branch on top of one per node), which only pays off if a
one-edge candidate edit stays cheap.  This harness pins the two claims
of the fine-grained-search PR on the scalability workloads
(:mod:`repro.systems.families`):

* **per-candidate cost scales with cone depth, not graph size** — a
  single fanout-tap edit (``x->branch_i``) dirties one branch plus its
  ``log2(branches)``-deep adder path, so growing the bank 4x (16 -> 64
  branches, cone depth +2) must grow the *warm* per-candidate cost far
  slower than the cold full walk; operationally, the warm-vs-cold
  speedup must increase with the bank width, and the 16-branch speedup
  must meet the committed ``fine_grained_search.per_candidate`` floor of
  ``benchmarks/bench_baseline.json`` (the same floor ``repro bench
  --check`` gates in CI);
* **a lower total-bits front at the same budget** — the edge-granularity
  greedy search must end strictly below the node-level search's total
  fractional bits on the same bank and noise budget, with the memoized
  search and the search with every evaluation on a fresh plan
  bit-identical at edge granularity.

Every timed comparison asserts the per-candidate noise powers are
bitwise identical between the memoized runs and the cold ones (the
memo cleared before each evaluation) before any speedup is reported.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis._engine import plan_memo
from repro.analysis.psd_method import evaluate_psd
from repro.bench import load_baseline, required_floor
from repro.sfg.plan import compile_plan
from repro.systems.families import build_scalability_bank
from repro.systems.wordlength import WordLengthOptimizer
from repro.utils.tables import TextTable

from conftest import candidate_replay, timed_replays, write_bench, write_report

_BASELINE = Path(__file__).parent / "bench_baseline.json"


def test_fine_grained_search(benchmark, bench_config, results_dir,
                             fresh_plan_search):
    n_psd = 256
    full = bench_config["mode"] == "full"
    widths = (16, 128) if full else (16, 64)
    candidates = 16
    repeat = 3
    budget_factor = 16.0

    # --- tap-edit scalability: cone depth vs graph size ------------------
    rows = []
    speedups = {}
    for branches in widths:
        bank = build_scalability_bank(branches=branches)
        plan = compile_plan(bank)
        edits = [(f"x->branch{index}", 12 - index % 2)
                 for index in range(min(candidates, branches))]
        cold, warm = timed_replays(plan, edits, n_psd, repeat)
        speedups[branches] = cold / warm
        rows.append((branches, bank.name, len(plan.steps), len(edits),
                     cold, warm))

    # --- search fronts: edge granularity vs node granularity -------------
    probe = build_scalability_bank(branches=widths[0])
    budget = float(evaluate_psd(probe, n_psd).total_power) * budget_factor
    node_result = WordLengthOptimizer(
        build_scalability_bank(branches=widths[0]),
        n_psd=n_psd).optimize(budget)
    edge_result = WordLengthOptimizer(
        build_scalability_bank(branches=widths[0]), n_psd=n_psd,
        granularity="edge").optimize(budget)
    fresh_plan_search()
    cold = WordLengthOptimizer(
        build_scalability_bank(branches=widths[0]), n_psd=n_psd,
        granularity="edge").optimize(budget)
    assert edge_result.assignment == cold.assignment
    assert edge_result.noise_power == cold.noise_power
    assert edge_result.evaluations == cold.evaluations
    assert edge_result.cone_recomputes > 0
    assert cold.cone_recomputes == 0
    assert edge_result.noise_power <= budget

    # --- report and payload ----------------------------------------------
    counters = plan_memo(compile_plan(
        build_scalability_bank(branches=widths[-1]))).counters()
    table = TextTable(
        ["workload", "steps", "tap edits", "full walk [s/cand]",
         "dirty cone [s/cand]", "speedup"],
        title=(f"fine-grained search ({bench_config['mode']} mode, "
               f"N_PSD={n_psd}; per-edge tap edits, memoized cone pulls "
               "vs cold full walks, bitwise identical powers)"))
    for branches, name, steps, count, cold, warm in rows:
        table.add_row(name, steps, count, round(cold / count, 6),
                      round(warm / count, 6),
                      round(speedups[branches], 1))
    search_lines = [
        f"greedy search on scalability-bank-{widths[0]} "
        f"(budget {budget:.3e}, {budget_factor:g}x the all-default power):",
        f"  node granularity: {node_result.total_bits} total bits "
        f"({node_result.evaluations} evaluations)",
        f"  edge granularity: {edge_result.total_bits} total bits "
        f"({edge_result.evaluations} evaluations, "
        f"{edge_result.cone_recomputes} cone recomputes; memoized and "
        "cold runs bit-identical)",
    ]
    write_report(results_dir, "fine_grained_search.txt",
                 table.render() + "\n\n" + "\n".join(search_lines))
    write_bench(results_dir, "fine_grained_search",
                workload={"widths": list(widths), "candidates": candidates,
                          "n_psd": n_psd, "budget_factor": budget_factor,
                          "node_total_bits": node_result.total_bits,
                          "edge_total_bits": edge_result.total_bits,
                          "node_evaluations": node_result.evaluations,
                          "edge_evaluations": edge_result.evaluations,
                          "steps_recomputed": counters["steps_recomputed"],
                          "steps_reused": counters["steps_reused"]},
                seconds={f"bank{branches}_{kind}": value
                         for branches, name, steps, count, cold, warm in rows
                         for kind, value in (("full_walks", cold),
                                             ("dirty_cones", warm))},
                speedup={"per_candidate": speedups[widths[0]],
                         "wide_per_candidate": speedups[widths[-1]]},
                tags=("smoke", "analysis", "scalability"))

    # The acceptance claims.
    assert edge_result.total_bits < node_result.total_bits, \
        (f"edge-granularity search ended at {edge_result.total_bits} "
         f"total bits, not strictly below the node-level "
         f"{node_result.total_bits} at the same budget")
    floor = required_floor(load_baseline(_BASELINE), "fine_grained_search",
                           "per_candidate", _BASELINE)
    assert speedups[widths[0]] >= floor, \
        (f"per-edge per-candidate speedup {speedups[widths[0]]:.1f}x fell "
         f"below the committed {floor:g}x floor on the "
         f"{widths[0]}-branch bank")
    # Cone depth grows with log2(branches) while the cold walk grows
    # linearly, so the warm-vs-cold advantage must widen with the bank.
    assert speedups[widths[-1]] > speedups[widths[0]], \
        (f"per-candidate speedup did not grow with the bank width: "
         f"{speedups[widths[0]]:.1f}x at {widths[0]} branches vs "
         f"{speedups[widths[-1]]:.1f}x at {widths[-1]}")

    bank = build_scalability_bank(branches=widths[0])
    plan = compile_plan(bank)
    benchmark(lambda: candidate_replay(plan, [("x->branch0", 12)], n_psd))

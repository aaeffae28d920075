"""Incremental re-evaluation speedup — dirty-cone pulls vs cold walks.

The word-length optimizer's inner loop is "move one node by one bit,
re-evaluate the output noise" — thousands of single-node edits against an
incumbent configuration.  The incremental engine
(:class:`repro.analysis._engine.NoiseMemo`) serves each such edit by
re-propagating only the edited node's downstream cone, bit-identically to
a cold full walk.  This harness pins that speedup on the
ablation-scalability workloads (:mod:`repro.systems.families`):

* the **wide bank** (``branches`` parallel FIR filters under an
  unquantized binary adder tree) — the best case, one greedy candidate
  touches ``1 + log2(branches)`` of the ``2 * branches + 1`` steps; the
  per-candidate speedup must meet the committed
  ``incremental_reeval.per_candidate`` floor of
  ``benchmarks/bench_baseline.json`` (the same floor ``repro bench
  --check`` gates in CI via the registered ``incremental_reeval`` bench);
* the **chain** — the worst case (an edit's cone is every downstream
  block), reported for scale but not floored;
* the **optimizer end to end** — ``WordLengthOptimizer`` with the memo
  and with every evaluation on a fresh plan, on a reduced bank:
  identical assignment and noise power, with the work split
  (``full_walks`` vs ``cone_recomputes``, batched rows computed vs
  copied from the memo) recorded in the payload.

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
from repro.systems.families import build_scalability_bank, build_scalability_chain
from repro.systems.wordlength import WordLengthOptimizer
from repro.utils.tables import TextTable

from conftest import candidate_replay, timed_replays, write_bench, write_report

_BASELINE = Path(__file__).parent / "bench_baseline.json"


def test_incremental_reeval_speedup(benchmark, bench_config, results_dir,
                                    fresh_plan_search):
    n_psd = 512
    full = bench_config["mode"] == "full"
    branches = 128 if full else 64
    candidates = 32 if full else 24
    repeat = 3

    # --- wide bank: the floored workload ---------------------------------
    bank = build_scalability_bank(branches=branches)
    bank_plan = compile_plan(bank)
    bank_edits = [(f"branch{index}", 13 - index % 2)
                  for index in range(candidates)]
    bank_cold, bank_warm = timed_replays(bank_plan, bank_edits, n_psd,
                                         repeat)
    bank_speedup = bank_cold / bank_warm

    # --- chain: the worst case, informational ----------------------------
    chain_blocks = 32
    chain = build_scalability_chain(chain_blocks)
    chain_plan = compile_plan(chain)
    chain_edits = [(f"block{index}", 13 - index % 2)
                   for index in range(min(candidates, chain_blocks))]
    chain_cold, chain_warm = timed_replays(chain_plan, chain_edits, n_psd,
                                           repeat)
    chain_speedup = chain_cold / chain_warm

    # --- optimizer end to end: memoized vs cold ---------------------------
    small = build_scalability_bank(branches=16)
    budget = float(evaluate_psd(small, n_psd).total_power) * 4.0
    small_memo = plan_memo(compile_plan(small))
    incremental = WordLengthOptimizer(small, n_psd=n_psd).optimize(budget)
    rows = small_memo.counters()
    fresh_plan_search()
    cold = WordLengthOptimizer(build_scalability_bank(branches=16),
                               n_psd=n_psd).optimize(budget)
    assert incremental.assignment == cold.assignment
    assert incremental.noise_power == cold.noise_power
    assert incremental.evaluations == cold.evaluations
    assert incremental.cone_recomputes > 0
    assert incremental.full_walks < incremental.evaluations
    assert rows["rows_computed"] < rows["rows_copied"]
    assert cold.full_walks == cold.cone_recomputes == 0

    # --- report and payload ----------------------------------------------
    counters = plan_memo(bank_plan).counters()
    table = TextTable(
        ["workload", "steps", "candidates", "full walk [s/cand]",
         "dirty cone [s/cand]", "speedup"],
        title=(f"incremental re-evaluation ({bench_config['mode']} mode, "
               f"N_PSD={n_psd}; memoized dirty-cone pulls vs cold full "
               "walks, bitwise identical powers)"))
    table.add_row(bank.name, len(bank_plan.steps), len(bank_edits),
                  round(bank_cold / len(bank_edits), 6),
                  round(bank_warm / len(bank_edits), 6),
                  round(bank_speedup, 1))
    table.add_row(chain.name, len(chain_plan.steps), len(chain_edits),
                  round(chain_cold / len(chain_edits), 6),
                  round(chain_warm / len(chain_edits), 6),
                  round(chain_speedup, 1))
    optimizer_lines = [
        f"optimizer on scalability-bank-16 (budget {budget:.3e}): "
        f"{incremental.evaluations} evaluations memoized and cold, "
        "identical assignment and noise power",
        f"  memoized: {incremental.full_walks} full walks + "
        f"{incremental.cone_recomputes} cone recomputes; batched rounds "
        f"computed {rows['rows_computed']} rows, copied "
        f"{rows['rows_copied']} from the memo",
        "  cold: every walk and every batched row computed from scratch",
    ]
    write_report(results_dir, "incremental_reeval.txt",
                 table.render() + "\n\n" + "\n".join(optimizer_lines))
    write_bench(results_dir, "incremental_reeval",
                workload={"branches": branches, "bank_steps":
                          len(bank_plan.steps), "chain_blocks": chain_blocks,
                          "candidates": candidates, "n_psd": n_psd,
                          "steps_recomputed": counters["steps_recomputed"],
                          "steps_reused": counters["steps_reused"],
                          "optimizer_full_walks": incremental.full_walks,
                          "optimizer_cone_recomputes":
                          incremental.cone_recomputes,
                          "optimizer_rows_computed": rows["rows_computed"],
                          "optimizer_rows_copied": rows["rows_copied"]},
                seconds={"bank_full_walks": bank_cold,
                         "bank_dirty_cones": bank_warm,
                         "chain_full_walks": chain_cold,
                         "chain_dirty_cones": chain_warm},
                speedup={"per_candidate": bank_speedup,
                         "chain_per_candidate": chain_speedup},
                tags=("smoke", "analysis", "scalability"))

    # The acceptance claim, gated by the same committed floor that
    # `repro bench --check` enforces in CI.
    floor = required_floor(load_baseline(_BASELINE), "incremental_reeval",
                           "per_candidate", _BASELINE)
    assert bank_speedup >= floor, \
        (f"per-candidate speedup {bank_speedup:.1f}x fell below the "
         f"committed {floor:g}x floor on the {branches}-branch bank")
    # Even the worst-case chain must not be slower than cold walks.
    assert chain_speedup > 1.0, \
        "dirty-cone pulls must beat cold walks even on the chain"

    benchmark(lambda: candidate_replay(bank_plan, bank_edits[:1], n_psd))

"""Ablation E8 — scalability of the evaluation (Section III-B).

The paper argues that after the one-time ``O(N log N)`` characterization
of each block, one evaluation of the proposed method costs ``O(N_PSD)``
per block, i.e. it is linear both in the number of blocks and in the
number of PSD bins, whereas the flat method's path enumeration grows much
faster with system size.

This ablation measures the evaluation time of the PSD method on chains of
increasing length and for increasing ``N_PSD``, fits the growth exponent
(log-log slope) and asserts that it is close to linear; it also measures
how the flat method's cost grows on the same chains for comparison.
"""

from __future__ import annotations

import numpy as np

from repro.analysis._engine import plan_memo
from repro.analysis.flat_method import evaluate_flat
from repro.analysis.psd_method import evaluate_psd
from repro.systems.families import build_scalability_chain as _chain_graph
from repro.utils.tables import TextTable
from repro.utils.timing import time_callable

from conftest import write_bench, write_report


def _cold(evaluate, graph, *args):
    """``evaluate(graph, *args)`` after clearing the graph's noise memo:
    a cold walk on warm response caches."""
    plan_memo(graph).clear()
    return evaluate(graph, *args)


def _loglog_slope(x, y) -> float:
    return float(np.polyfit(np.log(np.asarray(x, float)),
                            np.log(np.asarray(y, float)), 1)[0])


def test_scalability_in_blocks_and_bins(benchmark, bench_config, results_dir):
    n_psd = 512
    block_counts = (2, 4, 8, 16, 32)

    table = TextTable(
        ["blocks", "PSD eval [s]", "flat eval [s]"],
        title=f"Ablation — evaluation time versus chain length (N_PSD={n_psd})")
    psd_times = []
    flat_times = []
    # The scalability claim is about the cost of one *cold* evaluation;
    # without clearing the per-plan noise memo, every repeat after the
    # first would be a (near-free) memo hit and the fitted slopes
    # meaningless.
    for count in block_counts:
        graph = _chain_graph(count)
        _, psd_time = time_callable(_cold, evaluate_psd, graph, n_psd,
                                    repeat=3)
        _, flat_time = time_callable(_cold, evaluate_flat, graph, repeat=3)
        psd_times.append(psd_time)
        flat_times.append(flat_time)
        table.add_row(count, round(psd_time, 5), round(flat_time, 5))

    bin_counts = (64, 128, 256, 512, 1024, 2048)
    graph = _chain_graph(8)
    bin_table = TextTable(
        ["N_PSD", "PSD eval [s]"],
        title="Ablation — evaluation time versus N_PSD (8-block chain)")
    bin_times = []
    for bins in bin_counts:
        _, elapsed = time_callable(_cold, evaluate_psd, graph, bins,
                                   repeat=3)
        bin_times.append(elapsed)
        bin_table.add_row(bins, round(elapsed, 5))

    block_slope = _loglog_slope(block_counts, psd_times)
    flat_slope = _loglog_slope(block_counts, flat_times)
    bin_slope = _loglog_slope(bin_counts, bin_times)
    summary = TextTable(["quantity", "log-log slope"],
                        title="Ablation — fitted growth exponents")
    summary.add_row("PSD method vs number of blocks", round(block_slope, 2))
    summary.add_row("flat method vs number of blocks", round(flat_slope, 2))
    summary.add_row("PSD method vs N_PSD", round(bin_slope, 2))

    report = "\n\n".join([table.render(), bin_table.render(), summary.render()])
    write_report(results_dir, "ablation_scalability.txt", report)
    write_bench(results_dir, "ablation_scalability",
                workload={"block_counts": list(block_counts),
                          "bin_counts": list(bin_counts),
                          "psd_block_slope": block_slope,
                          "flat_block_slope": flat_slope,
                          "psd_bin_slope": bin_slope},
                seconds={"psd_eval_32_blocks": psd_times[-1],
                         "flat_eval_32_blocks": flat_times[-1]},
                tags=("scalability",))

    # Claims: the PSD method is (sub-)linear in both dimensions; the flat
    # method grows super-linearly with the chain length (path functions
    # lengthen as the chain grows).
    assert block_slope < 1.6
    assert bin_slope < 1.4
    assert flat_slope > block_slope

    # A new graph per call: compile, responses and walk, all cold.
    benchmark(lambda: evaluate_psd(_chain_graph(16), n_psd))

"""Ablation — cross-spectra at re-convergent paths (Eq. 12 vs Eq. 14).

The hierarchical PSD method adds PSDs at adders under the uncorrelated
assumption (Eq. 14).  When the *same* noise source reaches an adder
through two different paths, the contributions are correlated and the
exact combination requires the cross-spectra of Eq. 12, which the
per-source tracked variant of this library implements.

This ablation builds a family of two-path (direct + filtered) systems
with increasing correlation impact and compares three estimates against
simulation: uncorrelated PSD addition, tracked (cross-spectrum exact)
propagation, and the flat method.  It demonstrates when Eq. 14 is benign
(paths with roughly orthogonal phase) and when it is badly wrong
(coherent recombination), quantifying the design choice noted beside
Eq. 14 in the docstring of :mod:`repro.analysis.psd_method`.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.evaluator import AccuracyEvaluator
from repro.data.signals import uniform_white_noise
from repro.lti.fir_design import design_fir_lowpass
from repro.sfg.builder import SfgBuilder
from repro.utils.tables import TextTable

from conftest import write_bench, write_report


def _two_path_graph(branch_taps, fractional_bits=12):
    """input noise splits into a direct path and a filtered path, then adds."""
    builder = SfgBuilder("two-path")
    x = builder.input("x", fractional_bits=fractional_bits)
    direct = builder.gain("direct", 1.0, x)
    filtered = builder.fir("branch", branch_taps, x)
    combined = builder.add("sum", [direct, filtered])
    builder.output("y", combined)
    return builder.build()


def test_cross_correlation_ablation(benchmark, bench_config, results_dir):
    import time
    start = time.perf_counter()
    cases = {
        # Nearly coherent recombination: branch is a short delay-like filter.
        "coherent (identity branch)": np.array([1.0]),
        "mildly shaped branch": design_fir_lowpass(5, 0.8),
        "strongly shaped branch": design_fir_lowpass(21, 0.3),
    }

    table = TextTable(
        ["case", "simulated", "uncorrelated Ed [%]", "tracked Ed [%]",
         "flat Ed [%]"],
        title="Ablation — uncorrelated addition (Eq. 14) vs cross-spectrum "
              "tracking (Eq. 12) on re-convergent paths")

    worst_uncorrelated = 0.0
    worst_tracked = 0.0
    for name, taps in cases.items():
        graph = _two_path_graph(taps)
        evaluator = AccuracyEvaluator(graph, n_psd=512)
        comparison = evaluator.compare(
            uniform_white_noise(60_000, seed=len(name)),
            methods=("psd", "psd_tracked", "flat"), discard_transient=64)
        uncorrelated_ed = comparison.reports["psd"].ed_percent
        tracked_ed = comparison.reports["psd_tracked"].ed_percent
        flat_ed = comparison.reports["flat"].ed_percent
        worst_uncorrelated = max(worst_uncorrelated, abs(uncorrelated_ed))
        worst_tracked = max(worst_tracked, abs(tracked_ed))
        table.add_row(name, comparison.simulation.error_power,
                      round(uncorrelated_ed, 2), round(tracked_ed, 2),
                      round(flat_ed, 2))

    write_report(results_dir, "ablation_cross_correlation.txt", table.render())
    write_bench(results_dir, "ablation_cross_correlation",
                workload={"cases": len(cases),
                          "worst_uncorrelated_ed_percent": worst_uncorrelated,
                          "worst_tracked_ed_percent": worst_tracked},
                seconds={"harness": time.perf_counter() - start},
                tags=("accuracy",))

    # The tracked variant must stay accurate everywhere; the uncorrelated
    # variant must show a visibly larger worst case (it halves the
    # coherent-recombination power).
    assert worst_tracked < 15.0
    assert worst_uncorrelated > worst_tracked + 10.0

    graph = _two_path_graph(cases["strongly shaped branch"])
    evaluator = AccuracyEvaluator(graph, n_psd=512)
    benchmark(lambda: evaluator.estimate("psd_tracked").power)

"""Quick start: estimate the output quantization noise of a small system.

This example builds the smallest interesting fixed-point system — a
quantized input feeding a low-pass FIR filter whose output is re-quantized
— and compares the three analytical accuracy-evaluation methods against a
Monte-Carlo simulation, exactly the workflow of the paper's experiments.

It also shows the library's graph → plan → run pipeline: the mutable
graph is compiled once into a :class:`repro.CompiledPlan` and every
evaluation replays that plan, so re-evaluating the same system (a
word-length sweep, a benchmark loop) costs a fraction of the first call.

Run with::

    python examples/quickstart.py

The bit-true Monte-Carlo half of the comparison walks the compiled
plan's schedule with vectorized per-node kernels (see ARCHITECTURE.md,
"Simulation engine").
"""

from __future__ import annotations

import time

from repro import AccuracyEvaluator, SfgBuilder, compile_plan, evaluate_psd
from repro.data.signals import uniform_white_noise
from repro.lti.fir_design import design_fir_lowpass
from repro.utils.tables import TextTable


def build_system(fractional_bits: int = 12):
    """A quantized input, a 16-tap low-pass FIR and a re-quantized output."""
    builder = SfgBuilder("quickstart")
    x = builder.input("x", fractional_bits=fractional_bits)
    taps = design_fir_lowpass(16, cutoff=0.25)
    filtered = builder.fir("lowpass", taps, x, fractional_bits=fractional_bits)
    builder.output("out", filtered)
    return builder.build()


def main() -> None:
    fractional_bits = 12
    graph = build_system(fractional_bits)
    evaluator = AccuracyEvaluator(graph, n_psd=512)

    # Monte-Carlo reference plus the three analytical estimators.
    stimulus = uniform_white_noise(100_000, amplitude=0.9, seed=42)
    comparison = evaluator.compare(
        stimulus,
        methods=("psd", "flat", "agnostic"),
        discard_transient=64,
        metadata={"fractional_bits": fractional_bits},
    )

    print(f"System: {graph.name} with d = {fractional_bits} fractional bits")
    print(f"Simulated output noise power: "
          f"{comparison.simulation.error_power:.4e} "
          f"({comparison.simulation.num_samples} samples)\n")

    table = TextTable(["method", "estimated power", "Ed [%]",
                       "sub-one-bit?", "time [ms]"])
    for name, report in comparison.reports.items():
        table.add_row(
            name,
            report.estimate.power,
            round(report.ed_percent, 3),
            "yes" if report.sub_one_bit else "NO",
            round(1000.0 * (report.estimate.elapsed_seconds or 0.0), 3),
        )
    print(table.render())

    print("\nInterpretation: on a single filter block the flat, PSD-agnostic "
          "and proposed PSD methods coincide (Section IV-B of the paper); "
          "the value of the PSD method appears on multi-block systems — see "
          "the other examples.")

    # ------------------------------------------------------------------
    # Plan reuse: compile once, evaluate many times.
    # ------------------------------------------------------------------
    plan = compile_plan(graph)
    evaluate_psd(plan, 512)          # first call fills the response cache
    start = time.perf_counter()
    for _ in range(50):
        evaluate_psd(plan, 512)
    per_call = (time.perf_counter() - start) / 50
    print(f"\nPlan reuse: 50 repeated estimate('psd') calls on the compiled "
          f"plan run at {1000.0 * per_call:.3f} ms/call — the validated "
          "schedule and the block frequency responses are computed once and "
          "replayed, which is what makes word-length search loops cheap.")


if __name__ == "__main__":
    main()

"""Fixed-point accuracy of the Fig. 2 frequency-domain band-pass filter.

The system chains a 16-tap time-domain FIR with an FFT / coefficient
multiply / inverse-FFT overlap-save stage.  This example

1. runs the bit-true fixed-point implementation and the double-precision
   reference on the same stimulus,
2. measures the output quantization-noise power and spectrum,
3. compares the proposed PSD estimate and the PSD-agnostic estimate
   against the measurement, and
4. prints the noise spectrum so the frequency repartition of the error
   (Section IV-E of the paper) can be inspected.

Run with::

    python examples/frequency_domain_filter.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.psd_method import evaluate_psd
from repro.data.signals import uniform_white_noise
from repro.systems.freq_filter import FrequencyDomainFilter
from repro.utils.tables import TextTable


def spectrum_bars(psd_values: np.ndarray, buckets: int = 16,
                  width: int = 40) -> list[str]:
    """Render a PSD as coarse ASCII bars (one line per frequency bucket)."""
    half = psd_values[:len(psd_values) // 2]
    grouped = half.reshape(buckets, -1).sum(axis=1)
    peak = float(np.max(grouped)) or 1.0
    lines = []
    for index, value in enumerate(grouped):
        bar = "#" * max(1, int(round(width * value / peak))) if value > 0 else ""
        lines.append(f"  {index / (2 * buckets):4.2f}-"
                     f"{(index + 1) / (2 * buckets):4.2f}  {bar}")
    return lines


def main() -> None:
    fractional_bits = 12
    system = FrequencyDomainFilter(fractional_bits=fractional_bits, n_psd=1024)
    stimulus = uniform_white_noise(200_000, amplitude=0.9, seed=7)

    comparison = system.compare(stimulus, methods=("psd", "agnostic"))
    print(f"Frequency-domain band-pass filter, d = {fractional_bits} bits")
    print(f"simulated output-noise power: "
          f"{comparison.simulation.error_power:.4e}\n")

    table = TextTable(["method", "estimated power", "Ed [%]", "sub-one-bit?"])
    for name, report in comparison.reports.items():
        table.add_row(name, report.estimate.power,
                      round(report.ed_percent, 2),
                      "yes" if report.sub_one_bit else "NO")
    print(table.render())

    # Frequency repartition of the output error (estimated analytically).
    estimated_psd = evaluate_psd(system.graph, 256)
    print("\nEstimated frequency repartition of the output error "
          "(normalized frequency buckets):")
    print("\n".join(spectrum_bars(estimated_psd.values)))

    # The comparison measured the error record; this reuses it and only
    # adds the Welch estimate of its spectrum.
    measured_psd = system.evaluator.simulate(
        {"x": stimulus}, n_psd=1024, discard_transient=64).error_psd
    print("\nMeasured frequency repartition (Welch estimate of the "
          "simulated error):")
    print("\n".join(spectrum_bars(measured_psd.values[:256])))


if __name__ == "__main__":
    main()

"""Benchmark systems of the paper's evaluation section.

* :mod:`~repro.systems.filter_bank` — the 147-FIR / 147-IIR filter bank of
  Table I.
* :mod:`~repro.systems.freq_filter` — the frequency-domain band-pass
  filtering scheme of Fig. 2 (time-domain FIR + FFT / coefficient multiply
  / IFFT overlap-save stage).
* :mod:`~repro.systems.dwt` — the 2-level Daubechies 9/7 DWT encoder /
  decoder of Fig. 3.
* :mod:`~repro.systems.wordlength` — the word-length refinement use-case
  motivating the whole study (greedy optimization driven by any of the
  accuracy evaluators, with configuration-batched candidate rounds).
* :mod:`~repro.systems.pareto` — noise-budget sweeps turning the optimizer
  into a cost-vs-noise Pareto front (optionally cross-validated by
  simulation).
* :mod:`~repro.systems.families` — graph builders for system families
  beyond the paper's benchmarks (cascaded-SOS banks, polyphase
  decimators, interpolator chains, FFT butterfly networks), the raw
  material of the campaign scenario registry (:mod:`repro.campaign`).
* :mod:`~repro.systems.random_graphs` — the seeded random-SFG generator
  behind the differential fuzzing harness (:mod:`repro.verify`) and the
  ``random`` campaign scenario.
"""

from repro.systems.filter_bank import (
    FilterBankEntry,
    FilterBankResult,
    build_filter_graph,
    evaluate_filter_bank,
    generate_fir_bank,
    generate_iir_bank,
)
from repro.systems.freq_filter import (
    FrequencyDomainFilter,
    FrequencyDomainFirNode,
    build_frequency_filter_graph,
)
from repro.systems.dwt import Dwt97Codec, daubechies_9_7_filters
from repro.systems.families import (
    build_cascaded_sos_bank,
    build_dwt97_bank,
    build_fft_butterfly,
    build_interpolator_chain,
    build_polyphase_decimator,
    build_scalability_bank,
    build_scalability_chain,
)
from repro.systems.random_graphs import (
    build_random_graph,
    random_assignments,
    random_deltas,
)
from repro.systems.wordlength import WordLengthOptimizer, WordLengthResult
from repro.systems.pareto import (
    ParetoFront,
    ParetoPoint,
    budget_range,
    sweep_noise_budgets,
)

__all__ = [
    "FilterBankEntry",
    "FilterBankResult",
    "generate_fir_bank",
    "generate_iir_bank",
    "build_filter_graph",
    "evaluate_filter_bank",
    "FrequencyDomainFilter",
    "FrequencyDomainFirNode",
    "build_frequency_filter_graph",
    "Dwt97Codec",
    "daubechies_9_7_filters",
    "build_cascaded_sos_bank",
    "build_dwt97_bank",
    "build_fft_butterfly",
    "build_interpolator_chain",
    "build_polyphase_decimator",
    "build_scalability_bank",
    "build_scalability_chain",
    "build_random_graph",
    "random_assignments",
    "random_deltas",
    "WordLengthOptimizer",
    "WordLengthResult",
    "ParetoFront",
    "ParetoPoint",
    "budget_range",
    "sweep_noise_budgets",
]

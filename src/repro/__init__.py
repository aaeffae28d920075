"""repro — PSD-based scalable system-level accuracy evaluation.

Reproduction of B. Barrois, K. Parashar, O. Sentieys, *Leveraging Power
Spectral Density for Scalable System-Level Accuracy Evaluation*, DATE
2016.

The library is organized in layers:

* :mod:`repro.fixedpoint` — quantizers and the Widrow PQN noise model;
* :mod:`repro.lti` — filters, transfer functions, FFTs, multirate and
  block-convolution building blocks;
* :mod:`repro.sfg` — signal-flow-graph description and dual-mode
  (reference / fixed-point) execution;
* :mod:`repro.psd` — the discrete noise-PSD representation and its
  propagation rules;
* :mod:`repro.analysis` — the four accuracy-evaluation methods
  (simulation, flat analytical, PSD-agnostic hierarchical and the
  proposed PSD hierarchical method) behind one evaluator API;
* :mod:`repro.systems` — the paper's benchmark systems (filter bank,
  frequency-domain filter, Daubechies 9/7 DWT codec) and the word-length
  optimization use-case;
* :mod:`repro.data` — synthetic stimuli and surrogate images.

Quick start::

    from repro import quickstart_fir_graph, AccuracyEvaluator
    from repro.data import uniform_white_noise

    graph = quickstart_fir_graph(fractional_bits=12)
    evaluator = AccuracyEvaluator(graph, n_psd=256)
    comparison = evaluator.compare(uniform_white_noise(20_000, seed=1))
    print(comparison.describe())
"""

from repro.analysis import AccuracyEvaluator, SimulationEvaluator
from repro.analysis.psd_method import evaluate_psd
from repro.analysis.agnostic_method import evaluate_agnostic
from repro.analysis.flat_method import evaluate_flat
from repro.fixedpoint import Quantizer, RoundingMode
from repro.psd import DiscretePsd
from repro.sfg import CompiledPlan, SfgBuilder, SignalFlowGraph, compile_plan

__version__ = "1.0.0"


def quickstart_fir_graph(fractional_bits: int = 12,
                         num_taps: int = 16) -> SignalFlowGraph:
    """Build a minimal single-FIR system used by the quick-start example.

    The graph quantizes its input to ``fractional_bits`` fractional bits,
    filters it with a low-pass FIR and re-quantizes the filter output —
    the smallest system exhibiting the colored-noise effect the paper
    exploits.
    """
    from repro.lti.fir_design import design_fir_lowpass

    builder = SfgBuilder("quickstart-fir")
    x = builder.input("x", fractional_bits=fractional_bits)
    taps = design_fir_lowpass(num_taps, 0.25)
    y = builder.fir("lowpass", taps, x, fractional_bits=fractional_bits)
    builder.output("out", y)
    return builder.build()


__all__ = [
    "AccuracyEvaluator",
    "SimulationEvaluator",
    "evaluate_psd",
    "evaluate_agnostic",
    "evaluate_flat",
    "Quantizer",
    "RoundingMode",
    "DiscretePsd",
    "SignalFlowGraph",
    "SfgBuilder",
    "CompiledPlan",
    "compile_plan",
    "quickstart_fir_graph",
    "__version__",
]

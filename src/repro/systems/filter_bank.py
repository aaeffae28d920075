"""The FIR / IIR filter bank of the paper's first experiment (Table I).

The paper evaluates the proposed estimator on 147 FIR filters (16 to 128
taps, low-pass / high-pass / band-pass) and 147 IIR filters (orders 2 to
10, same functionalities).  Each filter is wrapped in the smallest
possible fixed-point system — quantized input, filter block, quantized
output — and the deviation ``Ed`` between the simulated and the estimated
output noise power is collected over the whole bank.

This module generates an equivalent parameterized bank (the paper does not
list its exact 147 + 147 designs, so the bank is spanned systematically
over the same ranges), builds the per-filter signal-flow graphs and runs
the Table-I evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.evaluator import AccuracyEvaluator
from repro.data.signals import SignalGenerator
from repro.fixedpoint.quantizer import RoundingMode
from repro.lti.fir_design import (
    design_fir_bandpass,
    design_fir_highpass,
    design_fir_lowpass,
)
from repro.lti.iir_design import design_iir_filter
from repro.sfg.builder import SfgBuilder
from repro.sfg.graph import SignalFlowGraph

_FIR_KINDS = ("lowpass", "highpass", "bandpass")
_IIR_KINDS = ("lowpass", "highpass", "bandpass")


@dataclass(frozen=True)
class FilterBankEntry:
    """One filter of the bank.

    Attributes
    ----------
    name:
        Unique identifier (kind, size and cutoff encoded in the string).
    kind:
        ``lowpass``, ``highpass`` or ``bandpass``.
    is_fir:
        Whether the filter is FIR (otherwise IIR).
    b, a:
        Filter coefficients (``a == (1,)`` for FIR entries).
    """

    name: str
    kind: str
    is_fir: bool
    b: tuple
    a: tuple

    @property
    def order(self) -> int:
        """Filter order (taps - 1 for FIR)."""
        return max(len(self.b), len(self.a)) - 1


def generate_fir_bank(count: int = 147, seed: int = 0) -> list[FilterBankEntry]:
    """Generate ``count`` FIR designs spanning the paper's ranges.

    Designs cycle through the three functionalities, tap counts from 16 to
    128 and a grid of cutoff frequencies; ``seed`` only affects the cutoff
    jitter used to avoid duplicated designs.
    """
    rng = np.random.default_rng(seed)
    tap_choices = [16, 24, 32, 48, 64, 80, 96, 112, 128]
    entries: list[FilterBankEntry] = []
    index = 0
    while len(entries) < count:
        kind = _FIR_KINDS[index % len(_FIR_KINDS)]
        taps = tap_choices[(index // len(_FIR_KINDS)) % len(tap_choices)]
        base_cutoff = 0.15 + 0.6 * ((index * 37) % 97) / 97.0
        jitter = float(rng.uniform(-0.02, 0.02))
        cutoff = float(np.clip(base_cutoff + jitter, 0.05, 0.9))
        if kind == "lowpass":
            coefficients = design_fir_lowpass(taps, cutoff)
        elif kind == "highpass":
            coefficients = design_fir_highpass(taps, cutoff)
        else:
            low = max(0.05, cutoff - 0.15)
            high = min(0.95, cutoff + 0.15)
            coefficients = design_fir_bandpass(taps, low, high)
        entries.append(FilterBankEntry(
            name=f"fir-{kind}-{taps}taps-{index:03d}",
            kind=kind,
            is_fir=True,
            b=tuple(float(c) for c in coefficients),
            a=(1.0,),
        ))
        index += 1
    return entries


def generate_iir_bank(count: int = 147, seed: int = 0) -> list[FilterBankEntry]:
    """Generate ``count`` stable IIR designs spanning the paper's ranges.

    Orders 2 to 10 (band-pass prototypes are halved so the digital order
    stays within 10), Butterworth and Chebyshev-I families, cutoffs spread
    over the band.  Unstable or ill-conditioned designs are skipped.
    """
    rng = np.random.default_rng(seed + 1)
    orders = [2, 3, 4, 5, 6, 7, 8, 9, 10]
    families = ["butterworth", "chebyshev1"]
    entries: list[FilterBankEntry] = []
    index = 0
    while len(entries) < count:
        kind = _IIR_KINDS[index % len(_IIR_KINDS)]
        order = orders[(index // len(_IIR_KINDS)) % len(orders)]
        family = families[(index // (len(_IIR_KINDS) * len(orders))) % len(families)]
        base_cutoff = 0.2 + 0.5 * ((index * 53) % 89) / 89.0
        jitter = float(rng.uniform(-0.02, 0.02))
        cutoff = float(np.clip(base_cutoff + jitter, 0.08, 0.85))
        index += 1
        try:
            if kind == "bandpass":
                prototype_order = max(1, order // 2)
                low = max(0.05, cutoff - 0.12)
                high = min(0.92, cutoff + 0.12)
                b, a = design_iir_filter(prototype_order, (low, high),
                                         kind="bandpass", family=family)
            else:
                b, a = design_iir_filter(order, cutoff, kind=kind,
                                         family=family)
        except ValueError:
            continue
        poles = np.roots(a) if len(a) > 1 else np.array([])
        if len(poles) and np.max(np.abs(poles)) > 0.999:
            continue
        entries.append(FilterBankEntry(
            name=f"iir-{family}-{kind}-order{order}-{index:03d}",
            kind=kind,
            is_fir=False,
            b=tuple(float(c) for c in b),
            a=tuple(float(c) for c in a),
        ))
    return entries


def build_filter_graph(entry: FilterBankEntry, fractional_bits: int,
                       rounding: RoundingMode | str = RoundingMode.ROUND
                       ) -> SignalFlowGraph:
    """Wrap one filter into the Table-I fixed-point system.

    The graph quantizes the (continuous-amplitude) input to
    ``fractional_bits`` bits and re-quantizes the filter output to the same
    precision, i.e. two noise sources: the input source and the filter's
    internal (accumulator) source.
    """
    builder = SfgBuilder(entry.name)
    x = builder.input("x", fractional_bits=fractional_bits, rounding=rounding)
    if entry.is_fir:
        node = builder.fir("filter", list(entry.b), x,
                           fractional_bits=fractional_bits, rounding=rounding)
    else:
        node = builder.iir("filter", list(entry.b), list(entry.a), x,
                           fractional_bits=fractional_bits, rounding=rounding)
    builder.output("y", node)
    return builder.build()


@dataclass
class FilterBankResult:
    """Per-filter ``Ed`` values and their Table-I statistics."""

    ed_values: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, ed: float) -> None:
        """Record the ``Ed`` of one filter."""
        self.ed_values[name] = ed

    @property
    def count(self) -> int:
        """Number of evaluated filters."""
        return len(self.ed_values)

    @property
    def min_ed(self) -> float:
        """Minimum ``Ed`` over the bank (fraction)."""
        return min(self.ed_values.values())

    @property
    def max_ed(self) -> float:
        """Maximum ``Ed`` over the bank (fraction)."""
        return max(self.ed_values.values())

    @property
    def mean_abs_ed(self) -> float:
        """Mean absolute ``Ed`` over the bank (fraction)."""
        return float(np.mean([abs(v) for v in self.ed_values.values()]))

    def summary_row(self) -> tuple[float, float, float]:
        """Table-I row: ``(min, max, mean(|Ed|))`` in percent."""
        return (100.0 * self.min_ed, 100.0 * self.max_ed,
                100.0 * self.mean_abs_ed)


def evaluate_filter_bank(entries: list[FilterBankEntry],
                         fractional_bits: int = 16,
                         num_samples: int = 20_000,
                         n_psd: int = 1024,
                         method: str = "psd",
                         stimulus_kind: str = "white",
                         rounding: RoundingMode | str = RoundingMode.ROUND,
                         seed: int = 0) -> FilterBankResult:
    """Run the Table-I experiment over a bank of filters.

    For every filter the output error power is measured by simulation and
    estimated with ``method``; the per-filter ``Ed`` values are collected
    into a :class:`FilterBankResult`.

    Parameters
    ----------
    entries:
        Filters to evaluate (from :func:`generate_fir_bank` /
        :func:`generate_iir_bank`).
    fractional_bits:
        Uniform fractional word length of all signals.
    num_samples:
        Simulation length per filter (the paper uses 10^6; the default is
        smaller so the full bank runs in minutes on a laptop).
    n_psd:
        PSD bins used by the estimator.
    method:
        Estimation method passed to the evaluator.
    stimulus_kind:
        Stimulus family (see :class:`repro.data.signals.SignalGenerator`).
    """
    generator = SignalGenerator(seed=seed)
    result = FilterBankResult()
    for entry in entries:
        graph = build_filter_graph(entry, fractional_bits, rounding)
        evaluator = AccuracyEvaluator(graph, n_psd=n_psd, name=entry.name)
        stimulus = generator.generate(stimulus_kind, num_samples)
        transient = min(4 * entry.order + 16, num_samples // 4)
        comparison = evaluator.compare(
            stimulus, methods=(method,), n_psd=n_psd,
            discard_transient=transient)
        result.add(entry.name, comparison.reports[method].ed)
    return result

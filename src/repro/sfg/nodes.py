"""Node vocabulary of the signal-flow graph.

A node states what its sub-system *is*:

1. **double-precision simulation** — :meth:`Node.simulate`;
2. **fixed-point simulation** — :meth:`Node.simulate_fixed`, used by the
   reference (Monte-Carlo) evaluation method;
3. **transfer behaviour** — the LTI nodes' effective (coefficient-
   quantized) transfer function, an IIR node's
   :meth:`IirNode.noise_shaping_function`, an adder's signs and a
   resampler's factor;
4. **noise generation** — :meth:`Node.generated_noise`.

How noise *crosses* a node is not stated here: the analytical methods
share one propagation rule per node type
(:func:`repro.analysis._engine._step`), and the differential oracle
:mod:`repro.verify.legacy` states its own.

Nodes that perform arithmetic own a :class:`QuantizationSpec`; in fixed
point their output is re-quantized according to that spec and the
corresponding additive noise source is returned by
:meth:`Node.generated_noise`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from repro.fixedpoint.noise_model import NoiseStats, quantization_noise_stats
from repro.fixedpoint.quantizer import (
    Quantizer,
    RoundingMode,
    round_half_away,
    rounding_mode,
)
from repro.lti.transfer_function import TransferFunction
from repro.simkernel.iir import iir_df1_fixed


@dataclass(frozen=True)
class QuantizationSpec:
    """Word-length specification of a node's output.

    Every width is an integer >= 0, checked when the spec is made: a
    negative, non-integral or boolean width raises a ``ValueError``
    naming the field (and the target, for a tap).  A width is fractional
    only; the integer part of every signal is taken as sized so that
    nothing overflows.  ``rounding`` is stored as a :class:`RoundingMode`
    member; its string value is accepted, and any other value raises a
    ``ValueError`` naming the field.

    Attributes
    ----------
    fractional_bits:
        Fractional word length of the node output; ``None`` disables
        quantization (the node computes in full precision).
    rounding:
        Rounding mode of the output quantizer.
    coefficient_fractional_bits:
        Precision of the node's constant coefficients (gains, filter
        taps); defaults to ``fractional_bits``.
    input_fractional_bits:
        Precision of the grid the quantizer input lives on, used to refine
        the noise model for re-quantization; ``None`` means the input is
        treated as continuous-amplitude (the usual, conservative PQN
        assumption).
    edge_fractional_bits:
        Per-fanout-branch word lengths: sorted ``(target name, bits)``
        pairs, each re-quantizing the value carried by the single edge
        from this node to ``target name`` (the node's own output keeps
        ``fractional_bits``).  A tap with at least as many bits as the
        node output is a no-op (the value already lives on the coarser
        grid) and injects exactly zero noise.  Stored as a tuple so the
        spec stays hashable; dicts are normalized on construction.
    """

    fractional_bits: int | None
    rounding: RoundingMode = RoundingMode.ROUND
    coefficient_fractional_bits: int | None = None
    input_fractional_bits: int | None = None
    edge_fractional_bits: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "rounding", rounding_mode(self.rounding))
        for name in _WIDTH_FIELDS:
            bits = getattr(self, name)
            if bits is not None:
                _check_width(bits, name)
        entries = self.edge_fractional_bits
        if isinstance(entries, dict):
            entries = entries.items()
        normalized = tuple(sorted(
            (str(target),
             int(_check_width(bits, "edge_fractional_bits", target)))
            for target, bits in entries))
        if len({target for target, _ in normalized}) != len(normalized):
            raise ValueError(
                "duplicate target in edge_fractional_bits: "
                f"{self.edge_fractional_bits!r}")
        object.__setattr__(self, "edge_fractional_bits", normalized)

    @property
    def enabled(self) -> bool:
        """Whether this spec quantizes the node's own output."""
        return self.fractional_bits is not None

    @property
    def coeff_bits(self) -> int | None:
        """Effective coefficient precision."""
        if self.coefficient_fractional_bits is None:
            return self.fractional_bits
        return self.coefficient_fractional_bits

    def quantizer(self) -> Quantizer:
        """Data-path quantizer described by this spec.

        Specs are frozen value objects, so the quantizer is memoized: the
        execution hot paths get one pre-constructed quantizer per distinct
        specification instead of building a fresh object per call.
        """
        if not self.enabled:
            raise ValueError("cannot build a quantizer from a disabled spec")
        return _build_quantizer(self.fractional_bits, self.rounding)

    def quantize_coefficients(self, values) -> np.ndarray:
        """Constant coefficients (gains, filter taps) as the node uses them.

        Coefficients are design-time constants: they are rounded to
        nearest, ties away from zero, at :attr:`coeff_bits` whatever the
        data-path rounding mode.  The double-precision reference run, the
        bit-true run and the analytical walks all use the rounded values,
        so coefficient quantization is a deterministic design change, not
        a roundoff noise source.  A disabled spec leaves the values exact.
        """
        values = np.asarray(values, dtype=float)
        if not self.enabled:
            return values
        step = 2.0 ** (-self.coeff_bits)
        return round_half_away(values / step) * step

    def edge_quantizer(self, bits: int) -> Quantizer:
        """Quantizer of a fanout tap carrying this node's output.

        The tap re-quantizes the *source* signal, so it inherits the
        source spec's rounding mode.
        """
        return _build_quantizer(int(bits), self.rounding)

    def edge_noise_stats(self, bits: int) -> NoiseStats:
        """PQN moments of the noise a fanout tap of ``bits`` bits injects.

        The tap input lives on the source's own output grid when the node
        quantizes (``fractional_bits``); a tap at least as fine as that
        grid is exactly noiseless.
        """
        return quantization_noise_stats(
            int(bits),
            rounding=self.rounding,
            input_fractional_bits=self.fractional_bits,
        )

    def noise_stats(self) -> NoiseStats:
        """PQN-model moments of the noise injected by this quantizer."""
        if not self.enabled:
            return NoiseStats(0.0, 0.0)
        return quantization_noise_stats(
            self.fractional_bits,
            rounding=self.rounding,
            input_fractional_bits=self.input_fractional_bits,
        )

    def with_fractional_bits(self, fractional_bits: int | None) -> "QuantizationSpec":
        """Copy of the spec with a different data word length.

        Implemented with :func:`dataclasses.replace` so every other field
        — including ones added later — is carried over by construction.
        """
        return replace(self, fractional_bits=fractional_bits)

    def edge_bits_for(self, target: str) -> int | None:
        """Fanout-tap word length toward ``target``, ``None`` when untapped."""
        for name, bits in self.edge_fractional_bits:
            if name == target:
                return bits
        return None

    def with_edge_fractional_bits(self, target: str,
                                  bits: int | None) -> "QuantizationSpec":
        """Copy with the tap toward ``target`` set (``None`` removes it)."""
        entries = dict(self.edge_fractional_bits)
        if bits is None:
            entries.pop(str(target), None)
        else:
            entries[str(target)] = bits
        return replace(self, edge_fractional_bits=tuple(sorted(entries.items())))


_WIDTH_FIELDS = ("fractional_bits", "coefficient_fractional_bits",
                 "input_fractional_bits")


def _check_width(bits, field: str, target: str | None = None):
    """``bits`` when it is an integer >= 0 (not a bool), else a
    ``ValueError`` naming ``field`` and, for a tap, its ``target``."""
    integral = type(bits) is int or (isinstance(bits, numbers.Integral)
                                     and not isinstance(bits, bool))
    if integral and bits >= 0:
        return bits
    where = "" if target is None else f" toward {target!r}"
    raise ValueError(f"{field}{where} must be an integer >= 0, "
                     f"got {bits!r}")


_NO_QUANTIZATION = QuantizationSpec(fractional_bits=None)


@lru_cache(maxsize=None)
def _build_quantizer(fractional_bits: int,
                     rounding: RoundingMode) -> Quantizer:
    return Quantizer(fractional_bits, rounding=rounding)


class Node:
    """Base class of every SFG node.

    :meth:`simulate` and :meth:`simulate_fixed` take one 1-D stream per
    input port, as :meth:`~repro.sfg.plan.CompiledPlan.run` passes them.
    """

    def __init__(self, name: str, num_inputs: int,
                 quantization: QuantizationSpec | None = None):
        if not name:
            raise ValueError("node name must be non-empty")
        if num_inputs < 0:
            raise ValueError("num_inputs must be non-negative")
        self.name = name
        self.num_inputs = num_inputs
        self.quantization = quantization or _NO_QUANTIZATION

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(self, inputs: list[np.ndarray]) -> np.ndarray:
        """Double-precision behaviour of the node."""
        raise NotImplementedError

    def simulate_fixed(self, inputs: list[np.ndarray]) -> np.ndarray:
        """Fixed-point behaviour of the node.

        The default implementation runs the double-precision behaviour on
        the (already quantized) inputs and re-quantizes the output
        according to :attr:`quantization`.  Nodes with internal state that
        must be quantized inside a recursion (IIR filters) override this.
        """
        output = self.simulate(inputs)
        if self.quantization.enabled:
            output = self.quantization.quantizer().quantize(output)
        return output

    # ------------------------------------------------------------------
    # Noise generation
    # ------------------------------------------------------------------
    def generated_noise(self) -> NoiseStats:
        """Moments of the quantization noise injected at this node's output."""
        return self.quantization.noise_stats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class _LtiMixin:
    """Shared transfer function and double run of single-input LTI nodes.

    FIR, IIR and generic LTI nodes hold their transfer function; gains and
    delays build theirs from their one parameter.
    """

    def transfer_function(self) -> TransferFunction:
        return self._transfer_function

    def _effective_transfer_function(self) -> TransferFunction:
        """Transfer function with quantized coefficients when applicable."""
        return self.transfer_function()

    def simulate(self, inputs: list[np.ndarray]) -> np.ndarray:
        # The reference system shares the (quantized) coefficients of the
        # fixed-point implementation; only the data path differs.
        (x,) = inputs
        return self._effective_transfer_function().filter(x)


class InputNode(Node):
    """External input of the system.

    In fixed-point mode the input signal is quantized to the node's word
    length, which is where the "input quantization noise" of the paper's
    experiments enters the system.
    """

    def __init__(self, name: str, quantization: QuantizationSpec | None = None):
        super().__init__(name, num_inputs=0, quantization=quantization)

    def simulate(self, inputs: list[np.ndarray]) -> np.ndarray:
        raise RuntimeError("InputNode values are supplied by the stimulus")


class OutputNode(Node):
    """External output of the system (identity pass-through)."""

    def __init__(self, name: str):
        super().__init__(name, num_inputs=1)

    def simulate(self, inputs: list[np.ndarray]) -> np.ndarray:
        (x,) = inputs
        return np.asarray(x, dtype=float)


class AddNode(Node):
    """N-ary adder / subtractor with unit (or signed-unit) input gains."""

    def __init__(self, name: str, num_inputs: int = 2,
                 signs: list[float] | None = None,
                 quantization: QuantizationSpec | None = None):
        super().__init__(name, num_inputs=num_inputs, quantization=quantization)
        if signs is None:
            signs = [1.0] * num_inputs
        if len(signs) != num_inputs:
            raise ValueError(
                f"expected {num_inputs} signs, got {len(signs)}")
        self.signs = [float(s) for s in signs]

    def simulate(self, inputs: list[np.ndarray]) -> np.ndarray:
        arrays = [np.asarray(x, dtype=float) for x in inputs]
        output = np.zeros(max(len(x) for x in arrays))
        for sign, x in zip(self.signs, arrays):
            output[:len(x)] += sign * x
        return output


class GainNode(_LtiMixin, Node):
    """Multiplication by a constant coefficient."""

    def __init__(self, name: str, gain: float,
                 quantization: QuantizationSpec | None = None):
        super().__init__(name, num_inputs=1, quantization=quantization)
        self.gain = float(gain)

    def _quantized_gain(self) -> float:
        return float(self.quantization.quantize_coefficients(self.gain))

    def transfer_function(self) -> TransferFunction:
        return TransferFunction.gain(self.gain)

    def _effective_transfer_function(self) -> TransferFunction:
        return TransferFunction.gain(self._quantized_gain())

    def simulate(self, inputs: list[np.ndarray]) -> np.ndarray:
        (x,) = inputs
        return np.asarray(x, dtype=float) * self._quantized_gain()


class DelayNode(_LtiMixin, Node):
    """Pure delay of an integer number of samples."""

    def __init__(self, name: str, delay: int = 1):
        super().__init__(name, num_inputs=1)
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.delay = int(delay)

    def transfer_function(self) -> TransferFunction:
        return TransferFunction.delay(self.delay)

    def simulate(self, inputs: list[np.ndarray]) -> np.ndarray:
        (x,) = inputs
        x = np.asarray(x, dtype=float)
        if self.delay == 0:
            return x.copy()
        if self.delay >= len(x):
            return np.zeros_like(x)
        return np.concatenate([np.zeros(self.delay), x[:-self.delay]])


class FirNode(_LtiMixin, Node):
    """FIR filter block.

    In fixed point the convolution with the quantized taps runs at full
    precision and its output is quantized once (the inherited
    :meth:`Node.simulate_fixed`): the standard DSP multiply-accumulate
    model assumed by the paper's noise-source placement.
    """

    def __init__(self, name: str, taps,
                 quantization: QuantizationSpec | None = None):
        super().__init__(name, num_inputs=1, quantization=quantization)
        taps = np.atleast_1d(np.asarray(taps, dtype=float))
        if taps.ndim != 1 or len(taps) == 0:
            raise ValueError("taps must be a non-empty 1-D array")
        self._transfer_function = TransferFunction.fir(taps)

    @property
    def taps(self) -> np.ndarray:
        """Filter coefficients."""
        return self._transfer_function.b

    def _effective_transfer_function(self) -> TransferFunction:
        if not self.quantization.enabled:
            return self._transfer_function
        return TransferFunction.fir(
            self.quantization.quantize_coefficients(self.taps))


class IirNode(_LtiMixin, Node):
    """IIR filter block (direct form I).

    The output quantizer sits inside the recursion, so the generated noise
    is filtered by ``1 / A(z)`` before reaching the node output; the
    propagation engines query :meth:`noise_shaping_function` to apply that
    shaping to the node's own noise source.  A design with a pole on or
    outside the unit circle is rejected: its outputs would diverge.
    """

    def __init__(self, name: str, b, a,
                 quantization: QuantizationSpec | None = None):
        super().__init__(name, num_inputs=1, quantization=quantization)
        self._transfer_function = TransferFunction(b, a)
        if not self._transfer_function.is_stable():
            largest = float(np.max(np.abs(self._transfer_function.poles())))
            raise ValueError(
                f"IIR node {name!r} is unstable: its design has a pole of "
                f"magnitude {largest:.6g}, on or outside the unit circle")

    def _effective_transfer_function(self) -> TransferFunction:
        if not self.quantization.enabled:
            return self._transfer_function
        quantize = self.quantization.quantize_coefficients
        return TransferFunction(quantize(self._transfer_function.b),
                                quantize(self._transfer_function.a))

    def noise_shaping_function(self) -> TransferFunction:
        """Transfer function from the internal quantizer to the output."""
        return TransferFunction(
            [1.0],
            self.quantization.quantize_coefficients(self._transfer_function.a))

    def simulate_fixed(self, inputs: list[np.ndarray]) -> np.ndarray:
        """Bit-true direct form I.

        The accumulator holds the exact sum of quantized-coefficient
        products; its output is quantized before entering the recursive
        delay line, so the error recirculates through ``1 / A(z)`` exactly
        as the analytical model assumes.  Without quantization the fixed
        run is the double run.
        """
        if not self.quantization.enabled:
            return self.simulate(inputs)
        (x,) = inputs
        effective = self._effective_transfer_function()
        return iir_df1_fixed(x, effective.b, effective.a,
                             self.quantization.quantizer().step,
                             self.quantization.rounding)


class LtiNode(_LtiMixin, Node):
    """Generic LTI block defined by an arbitrary transfer function."""

    def __init__(self, name: str, transfer_function: TransferFunction,
                 quantization: QuantizationSpec | None = None):
        super().__init__(name, num_inputs=1, quantization=quantization)
        self._transfer_function = transfer_function


class DownsampleNode(Node):
    """Decimator (keep one sample out of ``factor``)."""

    def __init__(self, name: str, factor: int = 2, phase: int = 0):
        super().__init__(name, num_inputs=1)
        if factor < 1:
            raise ValueError(f"factor must be at least 1, got {factor}")
        self.factor = int(factor)
        self.phase = int(phase)

    def simulate(self, inputs: list[np.ndarray]) -> np.ndarray:
        from repro.lti.multirate import downsample
        (x,) = inputs
        return downsample(np.asarray(x, dtype=float), self.factor, self.phase)


class UpsampleNode(Node):
    """Expander (insert ``factor - 1`` zeros between samples)."""

    def __init__(self, name: str, factor: int = 2):
        super().__init__(name, num_inputs=1)
        if factor < 1:
            raise ValueError(f"factor must be at least 1, got {factor}")
        self.factor = int(factor)

    def simulate(self, inputs: list[np.ndarray]) -> np.ndarray:
        from repro.lti.multirate import upsample
        (x,) = inputs
        return upsample(np.asarray(x, dtype=float), self.factor)

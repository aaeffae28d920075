"""Lowering of compiled plans into linear op tapes.

The op tape is the fixed-point simulation path of the ``fast`` backend.
It splits a :class:`~repro.sfg.plan.CompiledPlan` the same way the plan
itself splits the graph: an immutable *structure* — a flat tuple of
:class:`TapeOp` instructions (op code plus integer signal slots, one per
schedule step) — and rebindable *constants* — the quantized
coefficients, power-of-two quantization steps, rounding-mode ids and
edge-tap quantizers each op needs.  The structure is lowered once per
plan and can never change (a structural graph edit always produces a new
plan); the constants are rebuilt by :meth:`PlanTape.bind` whenever the
plan's quantization or coefficient signature moves, which is the
word-length optimizer's requantize loop.  A per-edge word-length edit is
one of those: the tap re-quantizes the value an op reads on that input
port, so slot ``i`` stays step ``i`` and only the constants change.

Execution is delegated to two interpreters over the same tape:

* :mod:`repro.simkernel.codegen.interpreter` — the always-available
  NumPy/Python tape walker (per-op closures compiled at bind time);
* :mod:`repro.simkernel.codegen._njit` — a single fused kernel over a
  packed integer/float encoding of the whole tape, used automatically
  when numba is importable, and self-validated against the NumPy
  interpreter before adoption.

Only the node vocabulary with closed-form tape semantics is lowerable:
inputs, outputs, adders, gains, delays, FIR/IIR blocks and the two
resamplers.  Plans containing anything else (generic ``LtiNode`` blocks,
the FFT-based frequency-domain FIR) raise :class:`UnsupportedPlanError`
and the plan keeps the per-node schedule walk.
"""

from __future__ import annotations

from repro.lti.filters import FixedPointFilterConfig
from repro.sfg.nodes import (
    AddNode,
    DelayNode,
    DownsampleNode,
    FirNode,
    GainNode,
    IirNode,
    InputNode,
    OutputNode,
    UpsampleNode,
)
from repro.obs import metric_inc, span
from repro.simkernel.backend import numba_available

#: Tape op codes (shared with the packed numba kernel).
OP_INPUT = 0
OP_COPY = 1
OP_ADD = 2
OP_GAIN = 3
OP_DELAY = 4
OP_FIR = 5
OP_IIR = 6
OP_DOWN = 7
OP_UP = 8

# Exact-type dispatch: FrequencyDomainFirNode subclasses FirNode but runs
# an FFT pipeline with its own internal quantizers, so subclasses must
# *not* inherit their base class's lowering.
_OPCODES = {
    InputNode: OP_INPUT,
    OutputNode: OP_COPY,
    AddNode: OP_ADD,
    GainNode: OP_GAIN,
    DelayNode: OP_DELAY,
    FirNode: OP_FIR,
    IirNode: OP_IIR,
    DownsampleNode: OP_DOWN,
    UpsampleNode: OP_UP,
}


class UnsupportedPlanError(ValueError):
    """The plan contains a node the op tape cannot express."""


class TapeOp:
    """One structural tape instruction: op code plus slot wiring.

    Constants (coefficients, steps, rounding modes) live in the tape's
    parallel constants tuple so that requantizing a plan rebinds them
    without touching the structure.
    """

    __slots__ = ("opcode", "dst", "srcs", "name")

    def __init__(self, opcode: int, dst: int, srcs: tuple[int, ...],
                 name: str):
        self.opcode = opcode
        self.dst = dst
        self.srcs = srcs
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TapeOp({self.opcode}, dst={self.dst}, srcs={self.srcs})"


class TapeConstants:
    """Bound per-op constants (one instance per tape op).

    ``step`` is the data-path quantization step of the op's uniform
    output quantization; ``0.0`` disables it.  For IIR ops the step and
    rounding mode describe the quantizer *inside* the recursion instead
    (the recursion output is already on the grid, so no uniform pass
    runs).  ``edge_quantizers`` is ``None`` when no input edge is
    tapped, else one :class:`~repro.fixedpoint.quantizer.Quantizer` (or
    ``None``) per input port, applied to the value read on that port.
    """

    __slots__ = ("step", "rounding", "signs", "gain", "delay", "factor",
                 "phase", "taps", "b", "a", "scaled_b", "feedback",
                 "edge_quantizers")

    def __init__(self):
        self.step = 0.0
        self.rounding = None
        self.signs = ()
        self.gain = 0.0
        self.delay = 0
        self.factor = 1
        self.phase = 0
        self.taps = None
        self.b = None
        self.a = None
        self.scaled_b = None
        self.feedback = None
        self.edge_quantizers = None


def _bind_step(step) -> TapeConstants:
    """Extract one schedule step's constants, mirroring its node's
    ``simulate_fixed`` semantics exactly (same quantizer construction,
    same coefficient quantization)."""
    node = step.node
    spec = node.quantization
    constants = TapeConstants()
    if spec.enabled:
        constants.step = spec.quantizer().fmt.step
        constants.rounding = spec.rounding
    if step.edge_taps is not None:
        constants.edge_quantizers = tuple(
            None if tap is None else tap.quantizer
            for tap in step.edge_taps)
    node_type = type(node)
    if node_type is AddNode:
        constants.signs = tuple(node.signs)
    elif node_type is GainNode:
        constants.gain = node._quantized_gain()
    elif node_type is DelayNode:
        constants.delay = node.delay
    elif node_type is DownsampleNode:
        constants.factor = node.factor
        constants.phase = node.phase
    elif node_type is UpsampleNode:
        constants.factor = node.factor
    elif node_type is FirNode:
        if spec.enabled:
            config = FixedPointFilterConfig(
                data_fractional_bits=spec.fractional_bits,
                coefficient_fractional_bits=spec.coeff_bits,
                rounding=spec.rounding)
            constants.taps = config.coefficient_quantizer().quantize(
                node.filter.taps)
            constants.step = config.data_quantizer().fmt.step
        else:
            constants.taps = node.filter.taps
    elif node_type is IirNode:
        if spec.enabled:
            config = FixedPointFilterConfig(
                data_fractional_bits=spec.fractional_bits,
                coefficient_fractional_bits=spec.coeff_bits,
                rounding=spec.rounding)
            coeff_quantizer = config.coefficient_quantizer()
            constants.b = coeff_quantizer.quantize(node.filter.b)
            constants.a = coeff_quantizer.quantize(node.filter.a)
            constants.step = config.data_quantizer().fmt.step
            # The recursion runs on output mantissas: pre-dividing the
            # numerator by the power-of-two step is exact (see
            # repro.simkernel.iir).
            constants.scaled_b = constants.b / constants.step
            constants.feedback = constants.a[1:]
        else:
            constants.b = node.filter.b
            constants.a = node.filter.a
    return constants


class PlanTape:
    """A lowered plan: immutable op structure + rebindable constants."""

    __slots__ = ("ops", "n_slots", "input_slots", "binding", "_consts",
                 "_program", "_packed", "_jit_state")

    def __init__(self, ops: tuple[TapeOp, ...],
                 input_slots: tuple[tuple[str, int], ...]):
        self.ops = ops
        self.n_slots = len(ops)
        self.input_slots = input_slots
        #: Monotonic counter identifying the current constant binding.
        self.binding = 0
        self._consts: tuple[TapeConstants, ...] | None = None
        self._program = None
        self._packed = None
        self._jit_state: str | None = None

    @property
    def constants(self) -> tuple[TapeConstants, ...]:
        return self._consts

    def bind(self, plan) -> None:
        """(Re)extract the per-op constants from the plan's live specs.

        Invalidates the compiled interpreter program and the packed JIT
        encoding — the op structure is untouched, which is what keeps the
        optimizer's requantize loop cheap.
        """
        self._consts = tuple(_bind_step(step) for step in plan.steps)
        self.binding += 1
        self._program = None
        self._packed = None
        self._jit_state = None

    def execute(self, stimulus: dict) -> list:
        """Run the tape on named stimulus arrays; returns per-slot signals.

        Prefers the fused numba kernel (when numba is installed, the tape
        is JIT-eligible and the kernel's probe run matched the NumPy
        interpreter bitwise); otherwise walks the tape with the NumPy
        interpreter.
        """
        from repro.simkernel.codegen import interpreter

        with span("tape.execute", ops=self.n_slots) as execute_span:
            if numba_available():
                from repro.simkernel.codegen import _njit
                signals = _njit.try_execute(self, stimulus)
                if signals is not None:
                    metric_inc("tape.executions", engine="njit")
                    execute_span.set(engine="njit")
                    return signals
            metric_inc("tape.executions", engine="interpreter")
            execute_span.set(engine="interpreter")
            return interpreter.run(self, stimulus)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlanTape(ops={self.n_slots}, binding={self.binding})"


def lower_plan(plan) -> PlanTape:
    """Lower a compiled plan to a bound :class:`PlanTape`.

    Raises
    ------
    UnsupportedPlanError
        When some node has no tape semantics; the caller falls back to
        the per-node schedule walk.
    """
    ops = []
    for step in plan.steps:
        opcode = _OPCODES.get(type(step.node))
        if opcode is None:
            raise UnsupportedPlanError(
                f"node {step.name!r} of type {type(step.node).__name__} "
                "cannot be lowered to a tape op")
        ops.append(TapeOp(opcode, step.index, step.predecessors, step.name))
    input_slots = tuple((name, plan.index_of[name])
                        for name in plan.input_names)
    tape = PlanTape(tuple(ops), input_slots)
    tape.bind(plan)
    return tape

"""Tape-walking NumPy interpreter for lowered plans.

This is the always-available execution engine of the op tape: at bind
time every :class:`~repro.simkernel.codegen.lowering.TapeOp` is compiled
into one Python closure with its constants (quantization step, rounding
mode, quantized coefficients, edge-tap quantizers) captured as locals, so
the run loop is a bare ``for fn in program: fn(slots)`` — no node
objects, no isinstance dispatch, no quantizer construction per call.

Bit-exactness strategy: every closure re-issues *the same* calls as the
per-node path (``_causal_fir``/``np.convolve``, ``lfilter``,
``iir_df1_fixed``, the ``apply_rounding`` mantissa pass, the edge taps'
``Quantizer.quantize``), so the interpreter is bitwise identical to the
per-node walk by construction.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from repro.fixedpoint.quantizer import apply_rounding
from repro.lti.filters import _causal_fir
from repro.lti.multirate import downsample, upsample
from repro.simkernel.codegen.lowering import (
    OP_ADD,
    OP_COPY,
    OP_DELAY,
    OP_DOWN,
    OP_FIR,
    OP_GAIN,
    OP_IIR,
    OP_INPUT,
    OP_UP,
)
from repro.simkernel.iir import iir_df1_fixed


# ----------------------------------------------------------------------
# Per-op closure compilers
# ----------------------------------------------------------------------
def _quantize_fn(constants):
    """Output-quantization closure (None when the op does not quantize).

    Replicates ``Quantizer.quantize`` exactly: divide by the step, round
    the mantissas, multiply back (overflow mode NONE throughout the
    library).
    """
    if not constants.step:
        return None
    step = constants.step
    mode = constants.rounding

    def quantize(values):
        return apply_rounding(values / step, mode) * step

    return quantize


def _tapped(src, quantizer):
    def read(slots):
        return quantizer.quantize(slots[src])

    return read


def _readers(op, constants):
    """One reader per input port: the source slot's signal, re-quantized
    by the port's edge tap when it has one."""
    taps = constants.edge_quantizers or (None,) * len(op.srcs)
    return tuple(itemgetter(src) if tap is None else _tapped(src, tap)
                 for src, tap in zip(op.srcs, taps))


def _compile_input(op, constants):
    quantize = _quantize_fn(constants)
    if quantize is None:
        return None  # unquantized inputs pass through untouched
    dst = op.dst

    def fn(slots):
        slots[dst] = quantize(slots[dst])

    return fn


def _compile_copy(op, constants):
    quantize = _quantize_fn(constants)
    dst = op.dst
    (read,) = _readers(op, constants)

    def fn(slots):
        value = read(slots)
        slots[dst] = quantize(value) if quantize is not None else value

    return fn


def _compile_add(op, constants):
    quantize = _quantize_fn(constants)
    dst = op.dst
    readers = _readers(op, constants)
    signs = constants.signs

    def fn(slots):
        arrays = [read(slots) for read in readers]
        length = max(x.shape[-1] for x in arrays)
        leading = np.broadcast_shapes(*[x.shape[:-1] for x in arrays])
        output = np.zeros(leading + (length,))
        for sign, x in zip(signs, arrays):
            output[..., :x.shape[-1]] += sign * x
        slots[dst] = quantize(output) if quantize is not None else output

    return fn


def _compile_gain(op, constants):
    quantize = _quantize_fn(constants)
    dst = op.dst
    (read,) = _readers(op, constants)
    gain = constants.gain

    def fn(slots):
        output = read(slots) * gain
        slots[dst] = quantize(output) if quantize is not None else output

    return fn


def _compile_delay(op, constants):
    quantize = _quantize_fn(constants)
    dst = op.dst
    (read,) = _readers(op, constants)
    delay = constants.delay

    def fn(slots):
        x = read(slots)
        if delay == 0:
            output = x.copy()
        elif delay >= x.shape[-1]:
            output = np.zeros_like(x)
        else:
            pad = np.zeros(x.shape[:-1] + (delay,))
            output = np.concatenate([pad, x[..., :-delay]], axis=-1)
        slots[dst] = quantize(output) if quantize is not None else output

    return fn


def _compile_fir(op, constants):
    quantize = _quantize_fn(constants)
    dst = op.dst
    (read,) = _readers(op, constants)
    taps = constants.taps

    def fn(slots):
        exact = _causal_fir(read(slots), taps)
        slots[dst] = quantize(exact) if quantize is not None else exact

    return fn


def _compile_iir(op, constants):
    dst = op.dst
    (read,) = _readers(op, constants)
    b, a = constants.b, constants.a
    if not constants.step:
        from scipy.signal import lfilter  # deferred: slow import

        def fn(slots):
            slots[dst] = lfilter(b, a, read(slots))

        return fn

    step = constants.step
    mode = constants.rounding

    def fn(slots):
        slots[dst] = iir_df1_fixed(read(slots), b, a, step, mode)

    return fn


def _compile_down(op, constants):
    quantize = _quantize_fn(constants)
    dst = op.dst
    (read,) = _readers(op, constants)
    factor, phase = constants.factor, constants.phase

    def fn(slots):
        output = downsample(read(slots), factor, phase)
        slots[dst] = quantize(output) if quantize is not None else output

    return fn


def _compile_up(op, constants):
    quantize = _quantize_fn(constants)
    dst = op.dst
    (read,) = _readers(op, constants)
    factor = constants.factor

    def fn(slots):
        output = upsample(read(slots), factor)
        slots[dst] = quantize(output) if quantize is not None else output

    return fn


_COMPILERS = {
    OP_INPUT: _compile_input,
    OP_COPY: _compile_copy,
    OP_ADD: _compile_add,
    OP_GAIN: _compile_gain,
    OP_DELAY: _compile_delay,
    OP_FIR: _compile_fir,
    OP_IIR: _compile_iir,
    OP_DOWN: _compile_down,
    OP_UP: _compile_up,
}


def compile_program(tape) -> tuple:
    """Compile one constant binding of a tape into a closure program."""
    program = []
    for op, constants in zip(tape.ops, tape.constants):
        fn = _COMPILERS[op.opcode](op, constants)
        if fn is not None:
            program.append(fn)
    return tuple(program)


def run(tape, stimulus: dict) -> list:
    """Execute the tape on named stimulus arrays; returns per-slot signals."""
    if tape._program is None:
        tape._program = compile_program(tape)
    slots: list = [None] * tape.n_slots
    for name, index in tape.input_slots:
        slots[index] = stimulus[name]
    for fn in tape._program:
        fn(slots)
    return slots

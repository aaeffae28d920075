"""Tape-walking NumPy interpreter for lowered plans.

This is the always-available execution engine of the codegen backend: at
bind time every :class:`~repro.simkernel.codegen.lowering.TapeOp` is
compiled into one Python closure with its constants (quantization step,
rounding mode, quantized coefficients) captured as locals, so the run
loop is a bare ``for fn in program: fn(slots)`` — no node objects, no
isinstance dispatch, no quantizer construction per call.

Bit-exactness strategy: every closure re-issues *the same* vectorized
NumPy calls as the per-node path (``_causal_fir``/``np.convolve``,
``lfilter``, the ``apply_rounding`` mantissa pass), so those ops are
bitwise identical by construction.  The one place that diverges is the
serial 1-D IIR recursion: instead of the per-sample ``np.dot`` call of
the numpy backend it runs a *generated* pure-Python recurrence with the
feedback taps unrolled into the source as literals.  Inside the library's
fixed-point domain every feedback product and partial sum is an exact
multiple of the common quantization step within a double's 53-bit
significand, so the sum is exact and accumulation-order independent —
the same argument (and the same empirical ``backend_equality`` fuzz
guard) that makes the numba backend bitwise identical to BLAS
``np.dot``.  Removing the ~1 µs/sample ``np.dot`` call overhead is what
lifts the IIR workload past the 5x bench floor even without numba.
"""

from __future__ import annotations

import math

import numpy as np

from repro.fixedpoint.quantizer import RoundingMode, apply_rounding
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
from repro.simkernel.reference import iir_df1_reference


# ----------------------------------------------------------------------
# Generated 1-D IIR recurrences
# ----------------------------------------------------------------------
_RECURRENCE_CACHE: dict = {}

_ROUND_EXPR = {
    RoundingMode.TRUNCATE: "_floor(acc)",
    # round-half-away-from-zero, the same formula as the scalar rounder
    # of repro.simkernel.iir.
    RoundingMode.ROUND: "_copysign(_floor(_abs(acc) + 0.5), acc)",
    # Python round() is correctly-rounded half-to-even, same as np.rint.
    RoundingMode.CONVERGENT: "_round(acc)",
}


def _compile_recurrence(feedback_taps: np.ndarray, rounding: RoundingMode):
    """Source-generate the serial recursion for one tap set.

    The taps are closed over as individual locals and the feedback dot
    product is unrolled into one expression, so the per-sample body is a
    handful of float operations with no array indexing or function-call
    overhead.  Takes/returns plain Python lists of step mantissas.
    """
    key = (feedback_taps.tobytes(), rounding)
    kernel = _RECURRENCE_CACHE.get(key)
    if kernel is not None:
        return kernel
    order = len(feedback_taps)
    taps = ", ".join(f"t{j}" for j in range(order))
    dot = " + ".join(f"t{j} * y{j}" for j in range(order))
    lines = [
        f"def _make({taps}, _floor, _copysign, _abs, _round):",
        "    def _kernel(values):",
        "        " + " = ".join(f"y{j}" for j in range(order)) + " = 0.0",
        "        out = []",
        "        _append = out.append",
        "        for acc in values:",
        f"            acc = acc - ({dot})",
        f"            m = {_ROUND_EXPR[rounding]}",
        "            _append(m)",
    ]
    for j in range(order - 1, 0, -1):
        lines.append(f"            y{j} = y{j - 1}")
    lines += [
        "            y0 = m",
        "        return out",
        "    return _kernel",
    ]
    namespace: dict = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - trusted generated source
    kernel = namespace["_make"](*(float(tap) for tap in feedback_taps),
                                math.floor, math.copysign, abs, round)
    _RECURRENCE_CACHE[key] = kernel
    return kernel


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
    (src,) = op.srcs

    def fn(slots):
        value = slots[src]
        slots[dst] = quantize(value) if quantize is not None else value

    return fn


def _compile_add(op, constants):
    quantize = _quantize_fn(constants)
    dst = op.dst
    srcs = op.srcs
    signs = constants.signs

    def fn(slots):
        arrays = [slots[index] for index in srcs]
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
    (src,) = op.srcs
    gain = constants.gain

    def fn(slots):
        output = slots[src] * gain
        slots[dst] = quantize(output) if quantize is not None else output

    return fn


def _compile_delay(op, constants):
    quantize = _quantize_fn(constants)
    dst = op.dst
    (src,) = op.srcs
    delay = constants.delay

    def fn(slots):
        x = slots[src]
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
    (src,) = op.srcs
    taps = constants.taps

    def fn(slots):
        exact = _causal_fir(slots[src], taps)
        slots[dst] = quantize(exact) if quantize is not None else exact

    return fn


def _compile_iir(op, constants):
    dst = op.dst
    (src,) = op.srcs
    if not constants.step:
        from scipy.signal import lfilter  # deferred: slow import
        b, a = constants.b, constants.a

        def fn(slots):
            slots[dst] = lfilter(b, a, slots[src])

        return fn

    b, a = constants.b, constants.a
    step = constants.step
    mode = constants.rounding
    scaled_b = constants.scaled_b
    feedback = constants.feedback
    if len(feedback) == 0:
        # No recursion: the scaled-integer kernel is one vectorized pass.
        def fn(slots):
            slots[dst] = iir_df1_fixed(slots[src], b, a, step, mode)

        return fn

    recurrence = _compile_recurrence(feedback, mode)

    def fn(slots):
        x = slots[src]
        if x.ndim != 1:
            # Batched trials: the vectorized per-sample kernels (numba
            # when installed) already amortize dispatch across rows.
            slots[dst] = iir_df1_fixed(x, b, a, step, mode)
            return
        scaled_ff = np.convolve(x, scaled_b)[:len(x)]
        try:
            mantissas = recurrence(scaled_ff.tolist())
        except (OverflowError, ValueError):
            # Non-finite accumulators (diverging filters): defer to the
            # reference loop, mirroring repro.simkernel.iir.
            slots[dst] = iir_df1_reference(x, b, a, step, mode)
            return
        slots[dst] = np.array(mantissas, dtype=float) * step

    return fn


def _compile_down(op, constants):
    quantize = _quantize_fn(constants)
    dst = op.dst
    (src,) = op.srcs
    factor, phase = constants.factor, constants.phase

    def fn(slots):
        output = downsample(slots[src], factor, phase)
        slots[dst] = quantize(output) if quantize is not None else output

    return fn


def _compile_up(op, constants):
    quantize = _quantize_fn(constants)
    dst = op.dst
    (src,) = op.srcs
    factor = constants.factor

    def fn(slots):
        output = upsample(slots[src], factor)
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

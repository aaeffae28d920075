"""Fused whole-tape JIT kernel, the numba tier of the op tape.

The tape is packed into flat typed arrays — an ``int64`` op table (op
code, destination slot, input-slot pool offsets, rounding-mode ids,
integer parameters, coefficient-pool offsets), a ``float64`` parameter
table (quantization steps, gains) and one shared coefficient pool — and
the *entire* schedule executes inside one ``@njit(cache=True)`` function
over a single ``(slots, trials, samples)`` float64 workspace.  One
compiled kernel serves every plan and every constant binding: the tape is
data, not code, so requantizing a plan never recompiles anything.

:func:`tape_kernel` is deliberately written as plain nopython-style
Python (explicit loops, no fancy indexing, no closures): numba compiles
it unchanged when installed, and the test suite calls the undecorated
function directly so its exact semantics are verified even on machines
without numba.  Two further guards keep the JIT path honest:

* **eligibility** — tapes whose FIR/IIR ops are not coefficient-quantized
  are never packed (their convolutions would have to match ``np.convolve``
  / ``lfilter`` outside the exact fixed-point domain, where accumulation
  order matters), and neither are tapes with edge taps (the packed
  encoding has no per-input quantizers);
* **probe** — before a compiled kernel is adopted for a binding, it runs
  a small deterministic stimulus and must match the NumPy tape
  interpreter bitwise; any mismatch or compile failure silently pins the
  tape to the interpreter.
"""

from __future__ import annotations

import math

import numpy as np

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
from repro.simkernel.iir import ROUNDING_CODES

#: Columns of the packed int64 op table.
_COL_OPCODE = 0
_COL_DST = 1
_COL_NIN = 2
_COL_IN_OFF = 3
_COL_MODE = 4      # uniform output-quantization rounding code, -1 = none
_COL_IPARAM_A = 5  # delay / resampling factor / IIR internal rounding code
_COL_IPARAM_B = 6  # downsampling phase
_COL_C_OFF = 7     # coefficient pool offset (signs / taps / scaled_b)
_COL_C_LEN = 8
_COL_C2_OFF = 9    # second coefficient array (IIR feedback taps)
_COL_C2_LEN = 10
_OP_COLS = 11

_STATE: dict = {"kernel": None, "failed": False}


def tape_kernel(ops, fparams, in_pool, coeff_pool, lengths, workspace):
    """Execute one packed tape over the whole workspace.

    ``workspace`` is ``(n_slots, trials, max_len)`` with the input slots
    pre-filled; ``lengths[slot]`` is the valid sample count of every slot
    (precomputed by :func:`slot_lengths`).  Runs unmodified under numba's
    nopython mode and as plain Python.
    """
    n_ops = ops.shape[0]
    trials = workspace.shape[1]
    for i in range(n_ops):
        opcode = ops[i, _COL_OPCODE]
        dst = ops[i, _COL_DST]
        n_in = ops[i, _COL_NIN]
        in_off = ops[i, _COL_IN_OFF]
        c_off = ops[i, _COL_C_OFF]
        c_len = ops[i, _COL_C_LEN]
        n = lengths[dst]
        if opcode == OP_INPUT:
            pass  # stimulus is pre-filled; only the uniform pass below runs
        elif opcode == OP_COPY:
            src = in_pool[in_off]
            for t in range(trials):
                for k in range(n):
                    workspace[dst, t, k] = workspace[src, t, k]
        elif opcode == OP_ADD:
            for t in range(trials):
                for k in range(n):
                    workspace[dst, t, k] = 0.0
            for j in range(n_in):
                src = in_pool[in_off + j]
                sign = coeff_pool[c_off + j]
                m = lengths[src]
                for t in range(trials):
                    for k in range(m):
                        workspace[dst, t, k] += sign * workspace[src, t, k]
        elif opcode == OP_GAIN:
            src = in_pool[in_off]
            gain = fparams[i, 1]
            for t in range(trials):
                for k in range(n):
                    workspace[dst, t, k] = workspace[src, t, k] * gain
        elif opcode == OP_DELAY:
            src = in_pool[in_off]
            delay = ops[i, _COL_IPARAM_A]
            for t in range(trials):
                for k in range(n):
                    if k < delay:
                        workspace[dst, t, k] = 0.0
                    else:
                        workspace[dst, t, k] = workspace[src, t, k - delay]
        elif opcode == OP_DOWN:
            src = in_pool[in_off]
            factor = ops[i, _COL_IPARAM_A]
            phase = ops[i, _COL_IPARAM_B]
            for t in range(trials):
                for k in range(n):
                    workspace[dst, t, k] = workspace[src, t, phase + k * factor]
        elif opcode == OP_UP:
            src = in_pool[in_off]
            factor = ops[i, _COL_IPARAM_A]
            for t in range(trials):
                for k in range(n):
                    workspace[dst, t, k] = 0.0
                for k in range(lengths[src]):
                    workspace[dst, t, k * factor] = workspace[src, t, k]
        elif opcode == OP_FIR:
            src = in_pool[in_off]
            for t in range(trials):
                for k in range(n):
                    acc = 0.0
                    limit = c_len if c_len <= k + 1 else k + 1
                    for j in range(limit):
                        acc += coeff_pool[c_off + j] * workspace[src, t, k - j]
                    workspace[dst, t, k] = acc
        elif opcode == OP_IIR:
            src = in_pool[in_off]
            mode = ops[i, _COL_IPARAM_A]
            step = fparams[i, 1]
            c2_off = ops[i, _COL_C2_OFF]
            c2_len = ops[i, _COL_C2_LEN]
            for t in range(trials):
                # Feed-forward convolution with the step-scaled numerator.
                for k in range(n):
                    acc = 0.0
                    limit = c_len if c_len <= k + 1 else k + 1
                    for j in range(limit):
                        acc += coeff_pool[c_off + j] * workspace[src, t, k - j]
                    workspace[dst, t, k] = acc
                # Serial recursion on output mantissas, quantized in-loop.
                for k in range(n):
                    acc = workspace[dst, t, k]
                    limit = c2_len if k >= c2_len else k
                    for j in range(limit):
                        acc -= coeff_pool[c2_off + j] * workspace[dst, t,
                                                                  k - 1 - j]
                    if mode == 0:
                        value = math.floor(acc)
                    elif mode == 1:
                        value = math.copysign(math.floor(abs(acc) + 0.5), acc)
                    else:
                        # Round half to even, spelled out from floor (the
                        # fractional part x - floor(x) is exact).
                        low = math.floor(acc)
                        fraction = acc - low
                        if fraction > 0.5:
                            value = low + 1.0
                        elif fraction < 0.5:
                            value = low
                        elif low % 2.0 == 0.0:
                            value = low
                        else:
                            value = low + 1.0
                    workspace[dst, t, k] = value
                for k in range(n):
                    workspace[dst, t, k] = workspace[dst, t, k] * step
        # Uniform output quantization (never set for IIR ops, whose
        # quantizer runs inside the recursion above).
        mode = ops[i, _COL_MODE]
        if mode >= 0:
            step = fparams[i, 0]
            for t in range(trials):
                for k in range(n):
                    acc = workspace[dst, t, k] / step
                    if mode == 0:
                        value = math.floor(acc)
                    elif mode == 1:
                        value = math.copysign(math.floor(abs(acc) + 0.5), acc)
                    else:
                        low = math.floor(acc)
                        fraction = acc - low
                        if fraction > 0.5:
                            value = low + 1.0
                        elif fraction < 0.5:
                            value = low
                        elif low % 2.0 == 0.0:
                            value = low
                        else:
                            value = low + 1.0
                    workspace[dst, t, k] = value * step
    return workspace


def get_kernel():
    """The jitted tape kernel, or ``None`` when numba is unusable."""
    if _STATE["kernel"] is None and not _STATE["failed"]:
        try:
            import numba

            kernel = numba.njit(cache=True)(tape_kernel)
            # Force compilation now on a one-op no-op tape so failures
            # surface here, not mid-simulation.
            ops = np.zeros((1, _OP_COLS), dtype=np.int64)
            ops[0, _COL_OPCODE] = OP_COPY
            ops[0, _COL_DST] = 1
            ops[0, _COL_NIN] = 1
            ops[0, _COL_MODE] = -1
            kernel(ops, np.zeros((1, 2)), np.zeros(1, dtype=np.int64),
                   np.zeros(1), np.array([2, 2], dtype=np.int64),
                   np.zeros((2, 1, 2)))
            _STATE["kernel"] = kernel
        except Exception:  # noqa: BLE001 - soft dependency, never fatal
            _STATE["failed"] = True
    return _STATE["kernel"]


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------
def pack(tape):
    """Encode one constant binding as flat typed arrays.

    Returns ``None`` when the tape is not JIT-eligible: FIR/IIR ops must
    be coefficient-quantized, otherwise their in-kernel sequential
    convolutions could differ from ``np.convolve`` / ``lfilter`` in the
    last bit (outside the exact fixed-point domain accumulation order
    matters), and no op may read through an edge tap.
    """
    n_ops = len(tape.ops)
    ops = np.zeros((n_ops, _OP_COLS), dtype=np.int64)
    fparams = np.zeros((n_ops, 2))
    in_pool: list[int] = []
    coeff_pool: list[float] = []
    for i, (op, constants) in enumerate(zip(tape.ops, tape.constants)):
        if constants.edge_quantizers is not None:
            return None  # tapped inputs run through the interpreter
        row = ops[i]
        row[_COL_OPCODE] = op.opcode
        row[_COL_DST] = op.dst
        row[_COL_NIN] = len(op.srcs)
        row[_COL_IN_OFF] = len(in_pool)
        in_pool.extend(op.srcs)
        if op.opcode == OP_IIR:
            if not constants.step:
                return None  # unquantized IIR runs through lfilter
            row[_COL_MODE] = -1
            row[_COL_IPARAM_A] = ROUNDING_CODES[constants.rounding]
            fparams[i, 1] = constants.step
            row[_COL_C_OFF] = len(coeff_pool)
            row[_COL_C_LEN] = len(constants.scaled_b)
            coeff_pool.extend(float(c) for c in constants.scaled_b)
            row[_COL_C2_OFF] = len(coeff_pool)
            row[_COL_C2_LEN] = len(constants.feedback)
            coeff_pool.extend(float(c) for c in constants.feedback)
            continue
        if constants.step:
            row[_COL_MODE] = ROUNDING_CODES[constants.rounding]
            fparams[i, 0] = constants.step
        else:
            row[_COL_MODE] = -1
        if op.opcode == OP_FIR:
            if not constants.step:
                return None  # unquantized convolution must match np.convolve
            row[_COL_C_OFF] = len(coeff_pool)
            row[_COL_C_LEN] = len(constants.taps)
            coeff_pool.extend(float(c) for c in constants.taps)
        elif op.opcode == OP_ADD:
            row[_COL_C_OFF] = len(coeff_pool)
            row[_COL_C_LEN] = len(constants.signs)
            coeff_pool.extend(float(s) for s in constants.signs)
        elif op.opcode == OP_GAIN:
            fparams[i, 1] = constants.gain
        elif op.opcode == OP_DELAY:
            row[_COL_IPARAM_A] = constants.delay
        elif op.opcode == OP_DOWN:
            row[_COL_IPARAM_A] = constants.factor
            row[_COL_IPARAM_B] = constants.phase
        elif op.opcode == OP_UP:
            row[_COL_IPARAM_A] = constants.factor
    return {
        "ops": ops,
        "fparams": fparams,
        "in_pool": np.asarray(in_pool if in_pool else [0], dtype=np.int64),
        "coeff_pool": np.asarray(coeff_pool if coeff_pool else [0.0],
                                 dtype=float),
    }


def slot_lengths(tape, input_lengths: dict) -> np.ndarray:
    """Sample count of every signal slot for given input lengths."""
    lengths = np.zeros(tape.n_slots, dtype=np.int64)
    for op, constants in zip(tape.ops, tape.constants):
        if op.opcode == OP_INPUT:
            lengths[op.dst] = input_lengths[op.name]
        elif op.opcode == OP_ADD:
            lengths[op.dst] = max(lengths[index] for index in op.srcs)
        elif op.opcode == OP_DOWN:
            available = lengths[op.srcs[0]] - constants.phase
            factor = constants.factor
            lengths[op.dst] = max(0, (available + factor - 1) // factor)
        elif op.opcode == OP_UP:
            lengths[op.dst] = lengths[op.srcs[0]] * constants.factor
        else:
            lengths[op.dst] = lengths[op.srcs[0]]
    return lengths


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _run_packed(tape, packed, kernel, stimulus: dict):
    """One kernel invocation; returns per-slot signals or ``None``."""
    arrays = [np.asarray(stimulus[name], dtype=float)
              for name, _ in tape.input_slots]
    leadings = {a.shape[:-1] for a in arrays if a.ndim > 1}
    if len(leadings) > 1:
        return None  # disagreement is the plan's error to raise
    leading = leadings.pop() if leadings else ()
    trials = 1
    for dim in leading:
        trials *= int(dim)
    lengths = slot_lengths(tape, {
        name: array.shape[-1]
        for (name, _), array in zip(tape.input_slots, arrays)})
    max_len = int(lengths.max()) if tape.n_slots else 0
    if max_len == 0 or trials == 0:
        return None  # degenerate shapes: let the NumPy interpreter handle
    # NumPy broadcasting keeps a signal 1-D until it actually combines
    # with a batched one; track which slots any batched stimulus reaches
    # so the per-node path's output shapes are reproduced exactly.
    batched = [False] * tape.n_slots
    workspace = np.zeros((tape.n_slots, trials, max_len))
    for (name, index), array in zip(tape.input_slots, arrays):
        # 1-D stimuli broadcast across the trial rows, matching NumPy
        # broadcasting in the per-node path (all ops are row-independent).
        batched[index] = array.ndim > 1
        workspace[index, :, :array.shape[-1]] = (
            array.reshape(-1, array.shape[-1]) if array.ndim > 1 else array)
    for op in tape.ops:
        if op.srcs:
            batched[op.dst] = any(batched[index] for index in op.srcs)
    try:
        kernel(packed["ops"], packed["fparams"], packed["in_pool"],
               packed["coeff_pool"], lengths, workspace)
    except Exception:  # noqa: BLE001 - degrade, never break a simulation
        return None
    signals = []
    for index in range(tape.n_slots):
        block = workspace[index, :, :lengths[index]]
        if leading and batched[index]:
            signals.append(block.reshape(leading + (int(lengths[index]),)))
        else:
            signals.append(block[0].copy())
    return signals


def _probe(tape, packed, kernel) -> bool:
    """Compare kernel vs NumPy interpreter bitwise on a tiny stimulus."""
    from repro.simkernel.codegen import interpreter

    samples = 48
    ramp = (np.arange(samples, dtype=float) * 37.0 % 19.0 - 9.0) / 16.0
    stimulus = {name: ramp for name, _ in tape.input_slots}
    try:
        expected = interpreter.run(tape, dict(stimulus))
        produced = _run_packed(tape, packed, kernel, stimulus)
    except Exception:  # noqa: BLE001 - a failing probe only disables the JIT
        return False
    if produced is None:
        return False
    return all(np.array_equal(want, got)
               for want, got in zip(expected, produced))


def try_execute(tape, stimulus: dict):
    """Run the tape through the fused kernel, or ``None`` to degrade."""
    packed = tape._packed
    if packed is False:
        return None
    if packed is None:
        packed = pack(tape)
        tape._packed = packed if packed is not None else False
        if packed is None:
            return None
    kernel = get_kernel()
    if kernel is None:
        return None
    if tape._jit_state is None:
        tape._jit_state = "ok" if _probe(tape, packed, kernel) else "failed"
    if tape._jit_state != "ok":
        return None
    return _run_packed(tape, packed, kernel, stimulus)

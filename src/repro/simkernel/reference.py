"""Reference (legacy) per-sample simulation loops.

These are the original bit-true IIR loops that predate the vectorized
kernel layer: every optimized kernel in :mod:`repro.simkernel` is
required to be **bitwise identical** to the loops in this module inside
the documented fixed-point domain, and the differential fuzz harness
(:mod:`repro.verify.differential`, ``backend_equality`` check) asserts
that equality on randomized graphs.  ``use_backend("reference")`` routes
all execution through these loops, which is also how the
perf-regression benchmarks measure the speedup of the optimized engine
against an honest baseline.

:func:`causal_fir_reference` is not a legacy loop: it is the one causal
FIR convolution of the package, shared by these loops, the fast kernels
and the double-precision leg.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.quantizer import RoundingMode, round_half_away


def causal_fir_reference(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Causal FIR filtering truncated to the input length.

    Stacked trials (leading axes) are convolved one row at a time with
    the same ``np.convolve`` call as a single stream, so each row is
    bitwise equal to its single-stream run.
    """
    num_samples = x.shape[-1]
    if x.ndim == 1:
        return np.convolve(x, taps)[:num_samples]
    out = np.empty(x.shape)
    for row, trial in zip(out.reshape(-1, num_samples),
                          x.reshape(-1, num_samples)):
        row[:] = np.convolve(trial, taps)[:num_samples]
    return out


def iir_df1_reference(x: np.ndarray, b: np.ndarray, a: np.ndarray,
                      step: float, rounding: RoundingMode) -> np.ndarray:
    """Legacy direct-form-I fixed-point IIR recursion.

    ``b`` and ``a`` are the (already coefficient-quantized) filter
    coefficients with ``a[0] == 1``; ``step`` is the data-path
    quantization step.  The accumulator holds the exact sum of products;
    its output is quantized before entering the recursive delay line.
    This is the original per-sample loop with the rounding-mode branch
    *inside* the loop body, exactly as it shipped before the kernel
    layer existed.
    """
    x = np.asarray(x, dtype=float)
    feed_forward = causal_fir_reference(x, b)
    feedback_taps = a[1:]
    na = len(feedback_taps)
    floor = np.floor
    if x.ndim > 1:
        y = np.zeros_like(x)
        num_samples = x.shape[-1]
        for n in range(num_samples):
            acc = feed_forward[..., n].copy()
            history_start = max(0, n - na)
            history = y[..., history_start:n][..., ::-1]
            if history.shape[-1]:
                acc -= history @ feedback_taps[:history.shape[-1]]
            if rounding is RoundingMode.TRUNCATE:
                y[..., n] = floor(acc / step) * step
            elif rounding is RoundingMode.ROUND:
                y[..., n] = round_half_away(acc / step) * step
            else:
                y[..., n] = np.rint(acc / step) * step
        return y
    y = np.zeros(len(x))
    for n in range(len(x)):
        acc = feed_forward[n]
        history_start = max(0, n - na)
        history = y[history_start:n][::-1]
        if len(history):
            acc -= float(np.dot(feedback_taps[:len(history)], history))
        if rounding is RoundingMode.TRUNCATE:
            y[n] = floor(acc / step) * step
        elif rounding is RoundingMode.ROUND:
            y[n] = round_half_away(acc / step) * step
        else:
            y[n] = np.rint(acc / step) * step
    return y

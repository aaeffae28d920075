"""Reference (legacy) per-sample simulation loops.

This is the original bit-true IIR loop that predates the vectorized
kernel layer: :func:`repro.simkernel.iir.iir_df1_fixed` is required to
be **bitwise identical** to it inside the documented fixed-point domain,
and calls it only on a non-finite accumulator.  The oracle
:func:`repro.verify.legacy.legacy_run` runs every enabled IIR node's
fixed leg through it; that is how the fuzz's ``backend_equality`` check
and the speedup benches reach it.  The block engines' legacy loops sit
beside their fast twins (the ``*_reference`` names).

:func:`causal_fir_reference` is not a legacy loop: it is the one causal
FIR convolution of the package, shared by these loops, the fast kernels
and the double-precision leg.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.quantizer import RoundingMode, round_half_away


def causal_fir_reference(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Causal FIR filtering of one stream, truncated to its length."""
    return np.convolve(x, taps)[:len(x)]


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

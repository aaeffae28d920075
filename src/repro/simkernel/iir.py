"""Scaled-integer-domain direct-form-I IIR kernels.

The bit-true IIR recursion quantizes each output sample before it enters
the recursive delay line, which forces a serial per-sample loop.  The
legacy loop (:mod:`repro.simkernel.reference`) performed a float
division, a rounding-mode branch and a ``* step`` rescale *per sample*.
These kernels instead run the whole recursion in the **scaled integer
domain**: with ``step`` the data-path quantization step (a power of
two),

* the feed-forward convolution is computed once with the numerator taps
  pre-divided by ``step``;
* the recursion state holds output *mantissas* ``Y[n] = y[n] / step``;
* the per-sample body is one multiply-accumulate against the feedback
  taps plus a single scalar rounding op, with the rounding-mode branch
  hoisted out of the loop;
* the final output is ``Y * step``.

Because ``step`` is a power of two, every one of those rescalings is
*exact* in binary floating point: scaling by a power of two multiplies
the significand grid uniformly, so it commutes with every IEEE-754
addition, multiplication and rounding the loop performs.

A single stream runs a *generated* pure-Python recurrence with the
feedback taps unrolled into the source as literals, so the per-sample
body is a handful of float operations with no array indexing or NumPy
call overhead.  It sums the feedback products left to right instead of
replaying the legacy loop's ``np.dot`` call.  Inside the library's
fixed-point domain every product and partial sum is an exact multiple of
the common quantization grid within a double's 53-bit significand, so the
sum is exact and independent of accumulation order: the kernel is bitwise
identical to the legacy loop there (``tests/test_simkernel.py`` and the
fuzz harness's ``backend_equality`` check pin it).  Beyond that domain —
roughly 40+ fractional bits on the data and coefficient words together —
the last bit may differ; see ARCHITECTURE.md, "Simulation engine".
Stacked Monte-Carlo trials run one vectorized rounding pass per sample
across all rows.  When numba is importable, both shapes run through the
JIT recursion of :mod:`repro.simkernel._numba` instead.
"""

from __future__ import annotations

import math

import numpy as np

from repro.fixedpoint.quantizer import RoundingMode
from repro.simkernel.backend import get_backend, numba_available
from repro.simkernel.reference import causal_fir_reference as causal_fir
from repro.simkernel.reference import iir_df1_reference

#: Integer codes shared with the Numba kernels.
ROUNDING_CODES = {
    RoundingMode.TRUNCATE: 0,
    RoundingMode.ROUND: 1,
    RoundingMode.CONVERGENT: 2,
}


def _round_array(rounding: RoundingMode, values: np.ndarray,
                 out: np.ndarray) -> None:
    """Round step mantissas elementwise into ``out`` (may alias a view)."""
    if rounding is RoundingMode.TRUNCATE:
        np.floor(values, out=out)
    elif rounding is RoundingMode.ROUND:
        magnitude = np.abs(values)
        magnitude += 0.5
        np.floor(magnitude, out=magnitude)
        np.copysign(magnitude, values, out=out)
    else:
        np.rint(values, out=out)


# ----------------------------------------------------------------------
# Generated single-stream recurrences
# ----------------------------------------------------------------------
#: Generated kernels keyed by (tap bytes, rounding mode).  The oldest is
#: evicted first, so a long search over many coefficient sets stays
#: bounded.
_RECURRENCE_CACHE: dict = {}
_RECURRENCE_CACHE_SIZE = 256

_ROUND_EXPR = {
    RoundingMode.TRUNCATE: "_floor(acc)",
    # round-half-away-from-zero: the scalar form of round_half_away.
    RoundingMode.ROUND: "_copysign(_floor(_abs(acc) + 0.5), acc)",
    # Python round() is correctly-rounded half-to-even, same as np.rint.
    RoundingMode.CONVERGENT: "_round(acc)",
}


def _compile_recurrence(feedback_taps: np.ndarray, rounding: RoundingMode):
    """Source-generate the serial recursion for one tap set.

    The taps are closed over as individual locals and the feedback dot
    product is unrolled into one expression.  Takes and returns plain
    Python lists of step mantissas; the math rounders raise on non-finite
    accumulators.
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
    if len(_RECURRENCE_CACHE) >= _RECURRENCE_CACHE_SIZE:
        del _RECURRENCE_CACHE[next(iter(_RECURRENCE_CACHE))]
    _RECURRENCE_CACHE[key] = kernel
    return kernel


def _iir_df1_batched(scaled_ff: np.ndarray, feedback_taps: np.ndarray,
                     rounding: RoundingMode) -> np.ndarray:
    mantissas = np.zeros_like(scaled_ff)
    na = len(feedback_taps)
    num_samples = scaled_ff.shape[-1]
    warm = min(na, num_samples)
    for n in range(warm):
        acc = scaled_ff[..., n].copy()
        if n:
            acc -= mantissas[..., :n][..., ::-1] @ feedback_taps[:n]
        _round_array(rounding, acc, mantissas[..., n])
    for n in range(warm, num_samples):
        acc = scaled_ff[..., n] - (mantissas[..., n - na:n][..., ::-1]
                                   @ feedback_taps)
        _round_array(rounding, acc, mantissas[..., n])
    return mantissas


# ----------------------------------------------------------------------
# Public entry point
# ----------------------------------------------------------------------
def iir_df1_fixed(x: np.ndarray, b: np.ndarray, a: np.ndarray, step: float,
                  rounding: RoundingMode) -> np.ndarray:
    """Bit-true direct-form-I IIR filtering.

    Parameters
    ----------
    x:
        Input samples; the last axis is time, leading axes are
        independent trials.
    b, a:
        Already coefficient-quantized numerator / denominator
        coefficients, ``a[0] == 1``.
    step:
        Data-path quantization step (a power of two).
    rounding:
        Rounding mode of the output quantizer inside the recursion.

    Under the ``reference`` backend this is the legacy loop.
    """
    if get_backend() == "reference":
        return iir_df1_reference(x, b, a, step, rounding)

    x = np.asarray(x, dtype=float)
    # Pre-dividing the numerator taps by the (power-of-two) step scales
    # the convolution exactly, so the recursion runs on output mantissas
    # and the per-sample division disappears.
    scaled_ff = causal_fir(x, b / step)
    feedback_taps = np.asarray(a[1:], dtype=float)
    if len(feedback_taps) == 0:
        # No recursion: the whole "loop" collapses to one vectorized
        # rounding pass over the feed-forward mantissas.
        mantissas = np.empty_like(scaled_ff)
        _round_array(rounding, scaled_ff, mantissas)
        return mantissas * step

    if numba_available():
        from repro.simkernel import _numba
        kernel = _numba.get_kernel()
        if kernel is not None:
            flat = scaled_ff.reshape(-1, scaled_ff.shape[-1])
            mantissas = kernel(np.ascontiguousarray(flat),
                               np.ascontiguousarray(feedback_taps),
                               ROUNDING_CODES[rounding])
            return mantissas.reshape(scaled_ff.shape) * step
        # JIT failed to compile: the NumPy kernels below.

    if x.ndim != 1:
        return _iir_df1_batched(scaled_ff, feedback_taps, rounding) * step
    try:
        mantissas = _compile_recurrence(feedback_taps, rounding)(
            scaled_ff.tolist())
    except (OverflowError, ValueError):
        # The scalar math rounders raise on non-finite accumulators
        # (diverging filters) where the legacy numpy ufuncs silently
        # propagate NaN/inf; defer to the reference loop so both paths
        # keep identical behaviour on degenerate systems.
        return iir_df1_reference(x, b, a, step, rounding)
    return np.array(mantissas, dtype=float) * step

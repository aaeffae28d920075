"""Direct-form-I IIR kernels: the bit-true recursion and the double leg.

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
feedback taps bound as closure locals and the feedback dot product
unrolled into one expression, so the per-sample body is a handful of
float operations with no array indexing or NumPy call overhead.  It sums
the feedback products left to right instead of replaying the legacy
loop's ``np.dot`` call.  Inside the library's fixed-point domain every
product and partial sum is an exact multiple of the common quantization
grid within a double's 53-bit significand, so the sum is exact and
independent of accumulation order: the kernel is bitwise identical to the
legacy loop there (``tests/test_simkernel.py`` and the fuzz harness's
``backend_equality`` check pin it).  Beyond that domain — roughly 40+
fractional bits on the data and coefficient words together — the last
bit may differ; see ARCHITECTURE.md, "Simulation engine".  Stacked
Monte-Carlo trials run one vectorized rounding pass per sample across
all rows.  When numba is importable, both shapes run through the JIT
recursion of :mod:`repro.simkernel._numba` instead.

The double-precision leg (:func:`iir_df1_double`) is the same recursion
with the rounding left out (``rounding=None``): the same feed-forward
convolution with the taps unscaled, the same feedback sum added left to
right, and the accumulator stored as it is.  The two legs of a
simulation therefore differ only by the data-path quantizers.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.fixedpoint.quantizer import RoundingMode
from repro.simkernel.backend import get_backend, numba_available
from repro.simkernel.reference import causal_fir_reference as causal_fir
from repro.simkernel.reference import iir_df1_reference

#: Integer codes shared with the Numba kernel; ``None`` is the double
#: leg's no-rounding mode.
ROUNDING_CODES = {
    RoundingMode.TRUNCATE: 0,
    RoundingMode.ROUND: 1,
    RoundingMode.CONVERGENT: 2,
    None: 3,
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
_ROUND_EXPR = {
    RoundingMode.TRUNCATE: "_floor(acc)",
    # round-half-away-from-zero: the scalar form of round_half_away.
    RoundingMode.ROUND: "_copysign(_floor(_abs(acc) + 0.5), acc)",
    # Python round() is correctly-rounded half-to-even, same as np.rint.
    RoundingMode.CONVERGENT: "_round(acc)",
    # The double leg stores the accumulator unrounded.
    None: "acc",
}


@lru_cache(maxsize=None)
def _recurrence_factory(order: int, rounding: RoundingMode | None):
    """Source-generate the serial recursion of one order and mode.

    The source depends only on the order and the rounding mode, so it is
    compiled once per pair; the returned ``_make(t0, ..., t{order-1},
    _floor, _copysign, _abs, _round)`` binds one tap set as closure
    locals.  The kernel takes and returns plain Python lists; the math
    rounders raise on non-finite accumulators, the no-rounding mode lets
    NaN and inf propagate.
    """
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
    return namespace["_make"]


def _iir_df1_batched(values: np.ndarray, feedback_taps: np.ndarray,
                     rounding: RoundingMode | None) -> np.ndarray:
    """The recursion over stacked trials, one vectorized pass per sample.

    The rounding modes take the feedback sum as one matrix-vector
    product: inside the fixed-point domain every partial sum is exact, so
    the order is free.  Without rounding no grid makes it exact, so the
    products are added left to right, the generated recurrence's order,
    and a stacked row equals its single-stream run bit for bit.
    """
    order = len(feedback_taps)
    taps = feedback_taps.tolist()
    # ``order`` leading zeros are the empty delay line the generated
    # recurrence starts from.
    state = np.zeros(values.shape[:-1] + (order + values.shape[-1],))
    for n in range(values.shape[-1]):
        k = n + order
        if rounding is None:
            feedback = taps[0] * state[..., k - 1]
            for j in range(1, order):
                feedback += taps[j] * state[..., k - 1 - j]
            state[..., k] = values[..., n] - feedback
        else:
            acc = values[..., n] - state[..., n:k][..., ::-1] @ feedback_taps
            _round_array(rounding, acc, state[..., k])
    return np.ascontiguousarray(state[..., order:])


def _recursion(values: np.ndarray, feedback_taps: np.ndarray,
               rounding: RoundingMode | None) -> np.ndarray:
    """``y[n] = R(values[n] - (t0 y[n-1] + t1 y[n-2] + ...))`` over the
    last axis, with ``R`` the rounding mode (the identity for ``None``)."""
    if numba_available():
        from repro.simkernel import _numba
        kernel = _numba.get_kernel()
        if kernel is not None:
            flat = values.reshape(-1, values.shape[-1])
            return kernel(np.ascontiguousarray(flat),
                          np.ascontiguousarray(feedback_taps),
                          ROUNDING_CODES[rounding]).reshape(values.shape)
        # JIT failed to compile: the NumPy kernels below.
    if values.ndim != 1:
        return _iir_df1_batched(values, feedback_taps, rounding)
    kernel = _recurrence_factory(len(feedback_taps), rounding)(
        *feedback_taps.tolist(), math.floor, math.copysign, abs, round)
    return np.array(kernel(values.tolist()), dtype=float)


# ----------------------------------------------------------------------
# Public entry points
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
    try:
        mantissas = _recursion(scaled_ff, feedback_taps, rounding)
    except (OverflowError, ValueError):
        # The scalar math rounders raise on non-finite accumulators
        # (diverging filters) where the legacy numpy ufuncs silently
        # propagate NaN/inf; defer to the reference loop so both paths
        # keep identical behaviour on degenerate systems.
        return iir_df1_reference(x, b, a, step, rounding)
    return mantissas * step


def iir_df1_double(x: np.ndarray, b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Double-precision direct-form-I IIR filtering: the double leg.

    The recursion of :func:`iir_df1_fixed` with the rounding left out:
    the feed-forward convolution with ``b`` unscaled, then
    ``y[n] = ff[n] - (a[1] y[n-1] + a[2] y[n-2] + ...)`` added left to
    right.  Stacked rows (leading axes of ``x``) equal their
    single-stream runs bit for bit; with no feedback taps the result is
    ``np.convolve(x, b)[:n]`` per row.  Diverging filters propagate NaN
    and inf.  The backend switch does not apply: this is not a bit-true
    kernel.

    Parameters
    ----------
    x:
        Input samples; the last axis is time, leading axes are
        independent trials.
    b, a:
        Numerator / denominator coefficients, ``a[0] == 1``.
    """
    x = np.asarray(x, dtype=float)
    feed_forward = causal_fir(x, np.asarray(b, dtype=float))
    feedback_taps = np.asarray(a[1:], dtype=float)
    if len(feedback_taps) == 0:
        return feed_forward
    return _recursion(feed_forward, feedback_taps, None)

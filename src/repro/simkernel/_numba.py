"""Optional Numba JIT kernel for the serial IIR feedback recursion.

Numba is a *soft* dependency: this module compiles lazily on first use
and degrades to ``None`` (the caller then runs the NumPy kernels) when
numba is absent or compilation fails for any reason.  Nothing here is
imported at package import time.

The jitted recursion is :func:`iir_df1_scaled`, written as plain Python
so the tests can run it without numba.  It sums the feedback products
exactly as the generated recurrence of :mod:`repro.simkernel.iir` does:
``t0 * y[n-1] + t1 * y[n-2] + ...`` added left to right from an empty
(zero) delay line, individually rounded products, no FMA contraction —
numba does not enable fast-math by default.  The no-rounding mode (code
3, the double leg) therefore returns the NumPy kernels' bits.  In the
fixed-point regimes this library simulates, every product and partial
sum is an exact multiple of the common quantization step that fits in a
double's 53-bit significand, so the sum is *exact* and independent of
accumulation order — which is why this kernel is bitwise identical to the
BLAS-backed batched NumPy kernel and to the legacy loops (the
``backend_equality`` differential check asserts exactly that on fuzzed
graphs).  The claim is conditional: outside that domain — diverging
filters or simultaneous deep data/coefficient words whose accumulators
leave the 53-bit-exact range while staying finite — accumulation order
matters again and the backends may differ in the last bit; that is
exactly what the differential check (and the benches' bitwise guard)
exist to catch empirically on any platform where numba runs.  See
ARCHITECTURE.md, "Simulation engine", for the word-length bound.
"""

from __future__ import annotations

import math

import numpy as np

_STATE: dict = {"kernel": None, "failed": False}


def iir_df1_scaled(scaled_ff, feedback_taps, mode):
    """The recursion over ``(trials, samples)`` rows.

    ``mode`` is a :data:`repro.simkernel.iir.ROUNDING_CODES` value:
    0 truncate, 1 round half away from zero, 2 round half to even,
    3 no rounding.
    """
    trials, num_samples = scaled_ff.shape
    order = feedback_taps.shape[0]
    mantissas = np.zeros((trials, num_samples))
    for t in range(trials):
        for n in range(num_samples):
            feedback = 0.0
            for j in range(order):
                previous = mantissas[t, n - 1 - j] if n > j else 0.0
                if j == 0:
                    feedback = feedback_taps[0] * previous
                else:
                    feedback += feedback_taps[j] * previous
            acc = scaled_ff[t, n] - feedback
            if mode == 3:
                value = acc
            elif mode == 0:
                value = math.floor(acc)
            elif mode == 1:
                value = math.copysign(math.floor(abs(acc) + 0.5), acc)
            else:
                # Round half to even, spelled out from floor: the
                # fractional part x - floor(x) is exact for doubles.
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
            mantissas[t, n] = value
    return mantissas


def _compile():
    import numba

    kernel = numba.njit(cache=False)(iir_df1_scaled)
    # Force compilation now so failures surface here, not mid-simulation.
    kernel(np.zeros((1, 4)), np.zeros(2), 1)
    return kernel


def get_kernel():
    """The jitted recursion kernel, or ``None`` when numba is unusable."""
    if _STATE["kernel"] is None and not _STATE["failed"]:
        try:
            _STATE["kernel"] = _compile()
        except Exception:  # noqa: BLE001 - soft dependency, never fatal
            _STATE["failed"] = True
    return _STATE["kernel"]
